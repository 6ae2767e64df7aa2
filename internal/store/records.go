package store

import (
	"encoding/json"
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
)

// Typed record payloads riding the WAL frames. Node records are binary
// — the row in its canonical encoding, the bytes its leaf digest
// hashes — because they dominate the log byte count; the low-rate
// metadata records — table roots, share metas, blocks, state
// checkpoints, commit markers — are JSON for evolvability.

const (
	// Kind 1 held node records whose row was JSON. It is retired, not
	// reused: recovery skips such records like any unknown kind, so a
	// table persisted before the binary row encoding fails verification
	// on load and heals through resync instead of being misread.
	kindTableRoot byte = 2 // a table's root digest + schema + seed
	kindShareMeta byte = 3 // per-share replica metadata
	kindBlock     byte = 4 // one accepted chain block
	kindState     byte = 5 // world-state checkpoint
	kindCommit    byte = 6 // commit marker sealing the preceding group
	kindNode      byte = 7 // one content-addressed row-tree node
)

const digLen = 32

// appendNodeRec appends a reldb node record to dst: digest, left, right,
// then the row's canonical encoding.
func appendNodeRec(dst []byte, n reldb.NodeData) []byte {
	dst = append(dst, n.Digest[:]...)
	dst = append(dst, n.Left[:]...)
	dst = append(dst, n.Right[:]...)
	return n.Row.AppendCanonical(dst)
}

// decodeNodeRec decodes a node record payload.
func decodeNodeRec(p []byte) (reldb.NodeData, error) {
	var n reldb.NodeData
	if len(p) < 3*digLen {
		return n, fmt.Errorf("store: node record too short (%d bytes)", len(p))
	}
	copy(n.Digest[:], p[:digLen])
	copy(n.Left[:], p[digLen:2*digLen])
	copy(n.Right[:], p[2*digLen:3*digLen])
	row, err := reldb.DecodeRow(p[3*digLen:])
	if err != nil {
		return reldb.NodeData{}, fmt.Errorf("store: decoding row: %w", err)
	}
	n.Row = row
	return n, nil
}

// nodeRecDigest extracts just the digest key from a node record
// payload (the open-time scan registers locations without decoding
// rows).
func nodeRecDigest(p []byte) ([digLen]byte, bool) {
	var d [digLen]byte
	if len(p) < 3*digLen {
		return d, false
	}
	copy(d[:], p[:digLen])
	return d, true
}

// TableRoot is the persisted commitment to one table: everything
// needed to rebuild it from node records and verify the rebuild.
type TableRoot struct {
	Name   string       `json:"name"`
	Schema reldb.Schema `json:"schema"`
	// Secret keys the treap priorities (share replicas); empty for
	// unkeyed tables.
	Secret []byte   `json:"secret,omitempty"`
	Root   [32]byte `json:"root"`
	Rows   int      `json:"rows"`
}

// ShareMeta is the persisted per-share replica state: which tables
// hold the replica and the sequence number it was applied at. The
// authoritative metadata (on-chain hash, participants) lives on the
// chain; this record only locates the local replica.
type ShareMeta struct {
	ID       string `json:"id"`
	Seq      uint64 `json:"seq"`
	Source   string `json:"source,omitempty"`
	View     string `json:"view"`
	PrioSeed []byte `json:"prioSeed,omitempty"`
}

// StateCheckpoint is a full world-state export at a block height,
// written on clean shutdown so a graceful restart re-executes nothing.
type StateCheckpoint struct {
	Height  uint64          `json:"height"`
	Head    [32]byte        `json:"head"`
	Root    [32]byte        `json:"root"`
	Entries []statedb.Entry `json:"entries"`
}

// commitRec seals the records appended since the previous marker into
// one atomic group.
type commitRec struct {
	Seq uint64 `json:"seq"`
	// Clean marks a shutdown checkpoint: the process stopped gracefully
	// after this group.
	Clean bool `json:"clean,omitempty"`
}

func encodeJSONRec(v any) ([]byte, error) { return json.Marshal(v) }

func decodeBlockRec(p []byte) (*chain.Block, error) {
	var b chain.Block
	if err := json.Unmarshal(p, &b); err != nil {
		return nil, fmt.Errorf("store: decoding block record: %w", err)
	}
	return &b, nil
}
