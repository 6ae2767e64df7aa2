package core

import (
	"fmt"

	"medshare/internal/contract/sharereg"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// Durable share replicas: when Config.Store is set, every share
// operation that lands a new replica state (proposal, incoming apply,
// rollback, repair, resync) commits the materialized view, its source
// table, and the binding metadata to the content-addressed log as one
// atomic group. Content addressing makes the write O(changed nodes):
// a one-row update appends the treap path from the changed leaf to the
// root, not the table. On restart, AttachShare and RegisterShare
// restore the persisted replica instead of re-deriving it — after
// verifying it against both its persisted Merkle commitment (the store
// does that on load) and, when the sequence numbers line up, the
// on-chain payload hash. A replica that fails either check is
// discarded and rebuilt through the normal derive + resync path, so a
// corrupt or torn store degrades to a slower start, never to wrong
// data.

// persistShares writes the shares' current replica states to the
// durable store as one atomic group: every share's view, each distinct
// source table once, and every share's metadata. A ProposeUpdates round
// persists all its shares this way — one commit and one fsync, and a
// crash leaves the whole round or none of it. Best-effort: a write
// failure poisons the store (every later Commit reports it) but never
// blocks the in-memory protocol — the chain stays the source of truth
// and a restart falls back to resync.
func (p *Peer) persistShares(ss ...*Share) {
	st := p.cfg.Store
	if st == nil || len(ss) == 0 {
		return
	}
	err := st.Commit(func(b *store.Batch) error {
		// Snapshot inside the commit: the store serializes commits across
		// this callback, so of two commits persisting one source the later
		// always carries the later source snapshot.
		srcDone := make(map[string]bool, 1)
		for _, s := range ss {
			if view, err := p.snapshotTable(s.ViewName); err == nil {
				if err := b.PutTable(view); err != nil {
					return err
				}
			}
			if !srcDone[s.SourceTable] {
				srcDone[s.SourceTable] = true
				if src, err := p.snapshotTable(s.SourceTable); err == nil {
					if err := b.PutTable(src); err != nil {
						return err
					}
				}
			}
			err := b.PutShareMeta(store.ShareMeta{
				ID:       s.ID,
				Seq:      s.appliedSeq(),
				Source:   s.SourceTable,
				View:     s.ViewName,
				PrioSeed: s.prioSeed,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		p.logf("persist %d share(s) from %s: %v", len(ss), ss[0].ID, err)
	}
}

// persistShareRemoval tombstones a removed share (empty View marks the
// binding gone; the log is append-only, so the latest record wins).
func (p *Peer) persistShareRemoval(id string) {
	st := p.cfg.Store
	if st == nil {
		return
	}
	if err := st.Commit(func(b *store.Batch) error {
		return b.PutShareMeta(store.ShareMeta{ID: id})
	}); err != nil {
		p.logf("persist removal %s: %v", id, err)
	}
}

// restoredShare attempts to recover share id's replica from the
// durable store for a binding under the given local names. It returns
// the verified view (already carrying the share's priority seed), the
// restored source table when one was persisted (nil otherwise), and
// the applied sequence number. view is nil when there is no usable
// replica: no store, no (or tombstoned) metadata, a name mismatch with
// the requested binding, a failed Merkle verification on load, or a
// replica that claims the chain's current sequence number but does not
// hash to the on-chain payload hash; the share then re-derives and
// heals through resync. A persisted source table that fails to load is
// an error: the source is this peer's own record, and nothing can heal
// it, so the restart stops rather than bind over whatever was seeded.
func (p *Peer) restoredShare(id, sourceTable, viewName string, chainMeta *sharereg.Meta) (view, src *reldb.Table, seq uint64, err error) {
	st := p.cfg.Store
	if st == nil {
		return nil, nil, 0, nil
	}
	sm, found := st.Shares()[id]
	if !found || sm.View == "" || sm.View != viewName || sm.Source != sourceTable {
		return nil, nil, 0, nil
	}
	if _, persisted := st.Tables()[sourceTable]; persisted {
		if src, err = st.LoadTable(sourceTable); err != nil {
			return nil, nil, 0, fmt.Errorf("core: restoring share %s: source table %s failed to load: %w", id, sourceTable, err)
		}
	}
	v, err := st.LoadTable(sm.View)
	if err != nil {
		p.logf("restore %s: view failed verification: %v", id, err)
		return nil, nil, 0, nil
	}
	// Cross-check against the chain: at the chain's own sequence number
	// the replica must hash to the on-chain payload hash; at sequence 0
	// no hash exists yet; behind the chain the replica is accepted as a
	// valid stale version for resync to catch up (its content was
	// already verified against the persisted Merkle commitment).
	if sm.Seq == chainMeta.Seq && chainMeta.LastPayloadHash != "" && hashHex(v) != chainMeta.LastPayloadHash {
		p.logf("restore %s: replica does not match on-chain hash at seq %d; discarding", id, sm.Seq)
		return nil, nil, 0, nil
	}
	if sm.Seq > chainMeta.Seq {
		// Ahead of the chain this node can see — a crash between the
		// optimistic replica refresh and the request commit, or a chain
		// store that lost the tail. Untrustworthy; rebuild from source.
		return nil, nil, 0, nil
	}
	return v, src, sm.Seq, nil
}
