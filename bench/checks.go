package main

import (
	"encoding/hex"
	"fmt"

	"medshare/internal/audit"
	"medshare/internal/bx"
	"medshare/internal/reldb"
)

func hashHex(t *reldb.Table) string {
	h := t.Hash()
	return hex.EncodeToString(h[:])
}

// checkOutputs verifies the quiesced deployment after a workload: the
// paper's guarantees, stated on the final state. Any failure fails the
// command.
//
//   - every node agrees on height and state root;
//   - every sharing peer's replica hashes to the on-chain payload hash
//     at the sequence number the chain finalized;
//   - every lens is well behaved (GetPut, PutGet) on its final source;
//   - the sealer's chain replays to the roots its headers commit to.
func checkOutputs(e *env) error {
	sealer := e.sealer().node
	for _, dm := range e.d.daemons[1:] {
		if h, want := dm.node.Store().Height(), sealer.Store().Height(); h != want {
			return fmt.Errorf("node %s at height %d, sealer at %d", dm.name, h, want)
		}
		if dm.node.State().Root() != sealer.State().Root() {
			return fmt.Errorf("node %s state root differs from the sealer's", dm.name)
		}
	}
	for _, b := range e.binds {
		peer := e.d.daemon(b.daemon).peer
		meta, err := peer.Meta(b.share)
		if err != nil {
			return err
		}
		if meta.Pending != nil {
			return fmt.Errorf("share %s still has a pending update", b.share)
		}
		info, err := peer.ShareInfo(b.share)
		if err != nil {
			return err
		}
		if info.AppliedSeq != meta.Seq {
			return fmt.Errorf("share %s on %s applied seq %d, chain seq %d", b.share, b.daemon, info.AppliedSeq, meta.Seq)
		}
		view, err := peer.View(b.share)
		if err != nil {
			return err
		}
		if got := hashHex(view); got != meta.LastPayloadHash {
			return fmt.Errorf("share %s on %s: replica hash %s != on-chain %s at seq %d",
				b.share, b.daemon, got[:12], meta.LastPayloadHash[:12], meta.Seq)
		}
		src, err := peer.Source(b.source)
		if err != nil {
			return err
		}
		if err := bx.CheckWellBehaved(b.lens(), src); err != nil {
			return fmt.Errorf("share %s on %s: %w", b.share, b.daemon, err)
		}
	}
	if err := audit.New(sealer.Store(), sealer.Registry()).VerifyIntegrity(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// checkRecovered verifies a daemon restarted from its crash image holds
// what the live daemon holds: chain, state, and every shared replica. It
// returns how many of the daemon's source tables came back different
// from the live ones, which the caller fails on unless the workload
// applies several shares over one source concurrently (hub_fanout: 16
// per partner): core.persistShare snapshots the source outside the
// store's commit lock, so there an older snapshot can commit last and
// the log's newest copy of the source misses an applied update. See
// README.md, finding 4.
func checkRecovered(e *env, live *daemon, r *recovered) (staleSources int, err error) {
	if got, want := r.nd.Store().Height(), live.node.Store().Height(); got != want {
		return 0, fmt.Errorf("recovered %s at height %d, live at %d", live.name, got, want)
	}
	if r.nd.State().Root() != live.node.State().Root() {
		return 0, fmt.Errorf("recovered %s state root differs from live", live.name)
	}
	same := func(table string) (bool, error) {
		got, err := r.peer.Source(table)
		if err != nil {
			return false, err
		}
		want, err := live.peer.Source(table)
		if err != nil {
			return false, err
		}
		return got.Hash() == want.Hash(), nil
	}
	sources := make(map[string]bool)
	for _, b := range e.bindings(live.name) {
		ok, err := same(b.view)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("recovered %s replica %s differs from live", live.name, b.view)
		}
		sources[b.source] = true
	}
	for table := range sources {
		ok, err := same(table)
		if err != nil {
			return 0, err
		}
		if !ok {
			staleSources++
		}
	}
	return staleSources, nil
}
