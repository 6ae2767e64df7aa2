package core

import (
	"sync"

	"medshare/internal/reldb"
	"medshare/internal/reldb/pmap"
)

// Proof-carrying reads: the serving edge exposes fetches whose response
// carries a Merkle membership proof against the view's row root — the
// root the on-chain payload hash commits to — so a client that trusts
// the chain (or just pins the root) can verify a single row without
// holding any replica. Proof construction is O(log n) but still walks
// and hashes a root-to-leaf path per call; under read-heavy serving
// traffic the same few rows are proven over and over against the same
// version, so each share keeps a proof cache that is invalidated
// wholesale the moment the applied sequence number advances (a new
// version means a new root; no stale proof can survive the seq check).

// proofCacheMaxEntries bounds one share's cached proofs. A serving peer
// hosting thousands of shares must not let one hot share's key space
// grow an unbounded map; at the cap the cache resets wholesale — the
// next reads repopulate it, and steady-state hot keys win again.
const proofCacheMaxEntries = 4096

// RowProof is a proof-carrying read result: the row, the membership
// proof, and the root + version the proof verifies against. The root is
// the same value the on-chain payload hash commits to at Seq, so a
// verifier holding the chain metadata needs nothing else from this peer.
type RowProof struct {
	ShareID string
	// Seq is the share's applied version the proof was built at.
	Seq uint64
	// Row is the proven row (primary key + all view columns).
	Row reldb.Row
	// Root is the view's Merkle row root.
	Root [32]byte
	// Proof verifies Row against Root via reldb.VerifyRowProof.
	Proof pmap.Proof
	// SchemaSum and Rows are the other two inputs of the table hash the
	// on-chain payload hash commits to (sha256(schemaSum ‖ rowCount ‖
	// rowsRoot)); carrying them lets a chain-anchored verifier recompute
	// that hash and bind Root to the share's on-chain Seq without any
	// other data from this peer. All three come from the same view
	// snapshot, so they are mutually consistent by construction.
	SchemaSum [32]byte
	Rows      int
}

// proofCache is one share's memoized proof set for a single version.
type proofCache struct {
	mu sync.Mutex
	// seq is the applied sequence the cached proofs were built at; a
	// lookup under any other seq drops the whole map.
	seq     uint64
	root    [32]byte
	entries map[string]RowProof
}

// ProveView builds a membership proof for one row of the share's current
// view replica. Proofs are cached per share and version: a repeat read
// of the same key at the same applied sequence returns the memoized
// proof without touching the tree, and the first read after a version
// advance rebuilds from the new root (Stats reports the hit/miss split).
func (p *Peer) ProveView(shareID string, key reldb.Row) (RowProof, error) {
	s, err := p.share(shareID)
	if err != nil {
		return RowProof{}, err
	}
	view, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return RowProof{}, err
	}
	seq := s.appliedSeq()
	// The cache key is the key tuple's ordered storage encoding — the
	// same bytes the row tree is ordered by, so distinct keys never
	// collide.
	var kb []byte
	for _, v := range key {
		kb = v.AppendOrdered(kb)
	}
	ck := string(kb)
	root := view.RowsRoot()

	c := &s.proofs
	c.mu.Lock()
	if c.entries != nil && c.seq == seq && c.root == root {
		if pr, ok := c.entries[ck]; ok {
			c.mu.Unlock()
			p.stats.proofCacheHits.Add(1)
			return pr, nil
		}
	}
	c.mu.Unlock()
	p.stats.proofCacheMisses.Add(1)

	pr, err := proveRow(shareID, view, seq, key)
	if err != nil {
		return RowProof{}, err
	}

	c.mu.Lock()
	// Any version advance (or a racing proposal that changed the root
	// under the same label) invalidates the whole cache: proofs only
	// ever verify against the root they were built from.
	if c.entries == nil || c.seq != seq || c.root != root || len(c.entries) >= proofCacheMaxEntries {
		c.entries = make(map[string]RowProof)
		c.seq = seq
		c.root = root
	}
	c.entries[ck] = pr
	c.mu.Unlock()
	return pr, nil
}

// proveRow builds the proof-carrying read of one row of view, the
// share's replica at version seq.
func proveRow(shareID string, view *reldb.Table, seq uint64, key reldb.Row) (RowProof, error) {
	row, proof, err := view.ProveRow(key)
	if err != nil {
		return RowProof{}, err
	}
	return RowProof{
		ShareID: shareID, Seq: seq, Row: row, Root: view.RowsRoot(), Proof: proof,
		SchemaSum: view.SchemaSum(), Rows: view.Len(),
	}, nil
}
