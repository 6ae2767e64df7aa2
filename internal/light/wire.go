// Package light implements the light-client runtime: header-only chain
// sync plus proof-verified row reads, so a reader's state is
// O(headers + hot rows) instead of O(view). A light client trusts only
// (a) the locally computed deterministic genesis, (b) the consensus
// header check, and (c) SHA-256 — everything a serving peer returns is
// verified against a header it has checked itself:
//
//	genesis ──link/sig──▶ header.StateRoot
//	    ──state key proof──▶ sharereg meta (seq, payload hash)
//	    ──payload hash = sha256(schemaSum ‖ rows ‖ rowsRoot)──▶ rowsRoot
//	    ──row Merkle proof──▶ the row
//
// The response frames below use the same compact binary idiom as the
// sync protocol (version byte, minimal varint length prefixes, strict
// trailing-byte rejection, rows in their canonical encoding). They
// travel as the bodies of the HTTP light routes.
package light

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"medshare/internal/reldb"
	"medshare/internal/reldb/pmap"
	"medshare/internal/statedb"
	"medshare/internal/wire"
)

// wireVersion tags the light frame layouts. Version 2 carries the
// fetched row in its canonical encoding instead of JSON; version 3
// carries the share head's state proof as a pmap proof, in the layout
// of the row proof.
const wireVersion = 3

// wireMaxLen bounds the indices and the row count a frame carries, so
// each fits an int on every platform. Lengths and counts need no cap:
// wire.Reader refuses one the frame cannot hold.
const wireMaxLen = 1 << 26

// ErrWire marks a malformed light-protocol frame.
var ErrWire = fmt.Errorf("light: malformed frame")

// ShareHead is the proven share-head response: the raw sharereg state
// value for the share plus its membership proof against the state root
// of the main-chain header at Height. The verifier matches the proof
// against its *own* copy of that header — nothing here is trusted.
type ShareHead struct {
	Height  uint64
	Meta    []byte
	Version statedb.Version
	Proof   pmap.Proof
}

// RowFetch is the proof-carrying row response: the row, its Merkle
// membership proof against Root, and the full table-hash preimage
// (SchemaSum, Rows, Root) plus the schema itself. A verifier checks
// schema → SchemaSum, recomputes the payload hash, matches it against
// the chain-proven share head, and only then verifies the row proof —
// so every field is either proof-bound or recomputed.
type RowFetch struct {
	Seq       uint64
	SchemaSum [32]byte
	Rows      int
	Root      [32]byte
	Schema    reldb.Schema
	Row       reldb.Row
	Proof     pmap.Proof
}

// --- binary encoding -------------------------------------------------

// newFrameReader returns a reader over a light frame past its version byte.
func newFrameReader(raw []byte) wire.Reader {
	r := wire.NewReader(raw, ErrWire)
	if r.Byte() != wireVersion {
		r.Fail("frame version")
	}
	return r
}

// maxLen refuses an index or count above wireMaxLen.
func maxLen(r *wire.Reader, v uint64) int {
	if v > wireMaxLen {
		r.Fail(fmt.Sprintf("%d is out of range", v))
		return 0
	}
	return int(v)
}

// EncodeShareHead encodes the share-head response.
func EncodeShareHead(h *ShareHead) []byte {
	dst := make([]byte, 0, 256+len(h.Meta))
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, h.Height)
	dst = wire.AppendBytes(dst, h.Meta)
	dst = binary.AppendUvarint(dst, h.Version.Height)
	dst = binary.AppendUvarint(dst, uint64(h.Version.TxIndex))
	return appendProof(dst, &h.Proof)
}

// DecodeShareHead parses a frame produced by EncodeShareHead. Meta
// aliases raw.
func DecodeShareHead(raw []byte) (ShareHead, error) {
	r := newFrameReader(raw)
	out := ShareHead{Height: r.Uvarint(), Meta: r.Bytes()}
	out.Version.Height = r.Uvarint()
	out.Version.TxIndex = maxLen(&r, r.Uvarint())
	out.Proof = readProof(&r)
	return out, r.Done()
}

// EncodeRowFetch encodes the proof-carrying row response.
func EncodeRowFetch(f *RowFetch) []byte {
	dst := make([]byte, 0, 512)
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = append(dst, f.SchemaSum[:]...)
	dst = binary.AppendUvarint(dst, uint64(f.Rows))
	dst = append(dst, f.Root[:]...)
	schema, _ := json.Marshal(f.Schema) // plain strings, ints and bools: cannot fail
	dst = wire.AppendBytes(dst, schema)
	dst = f.Row.AppendCanonical(dst)
	return appendProof(dst, &f.Proof)
}

// DecodeRowFetch parses a frame produced by EncodeRowFetch. The schema
// must be in the JSON bytes EncodeRowFetch writes for it.
func DecodeRowFetch(raw []byte) (RowFetch, error) {
	r := newFrameReader(raw)
	var out RowFetch
	out.Seq = r.Uvarint()
	r.Fixed(out.SchemaSum[:])
	out.Rows = maxLen(&r, r.Uvarint())
	r.Fixed(out.Root[:])
	out.Schema = reldb.ParseSchema(&r, r.Bytes())
	out.Row = reldb.ReadRow(&r)
	out.Proof = readProof(&r)
	return out, r.Done()
}

// appendProof appends a membership proof: the entry's two child
// digests, then the count of ancestor steps and each step's entry
// digest, other-side digest and side flag.
func appendProof(dst []byte, p *pmap.Proof) []byte {
	dst = append(dst, p.Left[:]...)
	dst = append(dst, p.Right[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Steps)))
	for _, s := range p.Steps {
		dst = append(dst, s.Entry[:]...)
		dst = append(dst, s.Other[:]...)
		if s.PathLeft {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// readProof reads a proof appendProof wrote.
func readProof(r *wire.Reader) pmap.Proof {
	var p pmap.Proof
	r.Fixed(p.Left[:])
	r.Fixed(p.Right[:])
	p.Steps = make([]pmap.ProofStep, r.Count(2*len(pmap.Hash{})+1))
	for i := range p.Steps {
		s := &p.Steps[i]
		r.Fixed(s.Entry[:])
		r.Fixed(s.Other[:])
		s.PathLeft = r.Bool()
	}
	return p
}
