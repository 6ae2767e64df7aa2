package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"medshare/internal/chain"
	"medshare/internal/contract/sharereg"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// Serving back end for light clients, reached over HTTP (the api
// package's /v1/light/* routes): header pages, chain-proven share heads,
// and proof-carrying single-row fetches. A light client is not a sharing
// peer: none of these grant replica status, serve a view payload, or
// touch the share's update protocol. Everything served here is either a
// block header the client verifies itself or a value pinned under a
// Merkle proof to such a header.

// lightHeaderBatch caps headers per LightHeaders page; clients loop
// until a page comes back empty.
const lightHeaderBatch = 512

// LightHeaders returns one page of main-chain headers starting at the
// given height (empty when from is beyond the tip).
func (p *Peer) LightHeaders(from uint64) []chain.Header {
	mc := p.cfg.Node.Store().MainChain()
	var hs []chain.Header
	if from < uint64(len(mc)) {
		to := from + lightHeaderBatch
		if to > uint64(len(mc)) {
			to = uint64(len(mc))
		}
		hs = make([]chain.Header, 0, to-from)
		for i := from; i < to; i++ {
			hs = append(hs, mc[i].Header)
		}
	}
	return hs
}

// LightHead builds a light.ShareHead for the share: its current
// on-chain metadata under a state proof against the node's published
// head, anchored to that head's height.
func (p *Peer) LightHead(shareID string) (light.ShareHead, error) {
	head, state := p.cfg.Node.Head()
	value, ver, proof, _, err := state.ProveKey("share/" + shareID)
	if err != nil {
		return light.ShareHead{}, err
	}
	return light.ShareHead{Height: head.Header.Height, Meta: value, Version: ver, Proof: proof}, nil
}

// awaitNextBlock waits for the node's block-applied signal, at most one
// retry base delay. What the serve-side waits wait for arrives with a
// block, except a replica catching up by resync: the bound covers that.
func (p *Peer) awaitNextBlock(applied <-chan struct{}) {
	select {
	case <-applied:
	case <-p.cfg.Clock.After(p.cfg.Retry.withDefaults().Base):
	}
}

// lightRowAttempts bounds the serve-side wait for the local replica to
// converge to the on-chain payload hash before a row proof is served.
// The local view only advances when a finalized update is applied, so
// under write load it briefly lags the chain commit; serving from that
// window would hand the client a proof that anchors to a superseded
// payload hash and force a client-side retry.
const lightRowAttempts = 50

// LightRow builds a light.RowFetch for one view row: the proven row
// plus the table-hash preimage fields and schema a light client needs
// to bind it to the on-chain payload hash. Proof construction rides the
// per-share proof cache (prove.go).
func (p *Peer) LightRow(shareID string, key reldb.Row) (light.RowFetch, error) {
	pr, err := p.proveViewConverged(shareID, key)
	if err != nil {
		return light.RowFetch{}, err
	}
	s, err := p.share(shareID)
	if err != nil {
		return light.RowFetch{}, err
	}
	view, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return light.RowFetch{}, err
	}
	return light.RowFetch{
		Seq:       pr.Seq,
		SchemaSum: pr.SchemaSum,
		Rows:      pr.Rows,
		Root:      pr.Root,
		// The schema is fixed at share registration; the client binds it
		// via SchemaSum, so serving it from a fresh snapshot is safe.
		Schema: view.Schema(),
		Row:    pr.Row,
		Proof:  pr.Proof,
	}, nil
}

// proveViewConverged builds a row proof whose table hash matches the
// share's current on-chain payload hash, waiting out the window where a
// freshly finalized update has committed on-chain but the local replica
// has not applied it yet. If the replica does not converge within the
// attempt budget the latest proof is served anyway — the client's own
// verification decides whether it is acceptable.
func (p *Peer) proveViewConverged(shareID string, key reldb.Row) (RowProof, error) {
	stateKey := "share/" + shareID
	var pr RowProof
	for attempt := 0; ; attempt++ {
		applied := p.cfg.Node.BlockApplied()
		var err error
		pr, err = p.ProveView(shareID, key)
		if err != nil {
			return RowProof{}, err
		}
		raw, _, ok := p.cfg.Node.State().Get(stateKey)
		if !ok {
			return pr, nil
		}
		meta, err := sharereg.DecodeMeta(raw)
		if err != nil {
			return pr, nil
		}
		if meta.LastPayloadHash == "" || rowProofPayloadHex(&pr) == meta.LastPayloadHash {
			return pr, nil
		}
		// While our own proposal is pending the replica runs one version
		// ahead of the chain; the pre-proposal view we keep for rollback is
		// the finalized version, so serve from it instead of making the
		// reader wait for (and then miss) the next one.
		if s, err := p.share(shareID); err == nil {
			s.stMu.Lock()
			bk := s.backup
			s.stMu.Unlock()
			if bk != nil && hashHex(bk.view) == meta.LastPayloadHash {
				if old, err := proveRow(shareID, bk.view, bk.seq, key); err == nil {
					return old, nil
				}
			}
		}
		if attempt >= lightRowAttempts {
			return pr, nil
		}
		p.awaitNextBlock(applied)
	}
}

// rowProofPayloadHex recomputes the table hash the proof's preimage
// fields commit to, mirroring reldb.Table.Hash.
func rowProofPayloadHex(pr *RowProof) string {
	var buf [72]byte
	copy(buf[:32], pr.SchemaSum[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(pr.Rows))
	copy(buf[40:], pr.Root[:])
	h := sha256.Sum256(buf[:])
	return hex.EncodeToString(h[:])
}
