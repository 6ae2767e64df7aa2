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
// The wire frames below use the same compact binary idiom as the sync
// protocol (version byte, varint length prefixes, strict trailing-byte
// rejection, rows in their canonical encoding); requests are signed for
// authenticity, but serving a light client never grants replica status.
package light

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"medshare/internal/identity"
	"medshare/internal/merkle"
	"medshare/internal/reldb"
	"medshare/internal/reldb/pmap"
	"medshare/internal/statedb"
)

// wireVersion tags the light frame layouts. Version 2 carries the row
// request's key tuple and the fetched row in their canonical encoding
// instead of JSON.
const wireVersion = 2

// wireMaxLen caps any single length field while decoding, so a corrupt
// frame cannot drive a huge allocation before the bounds check.
const wireMaxLen = 1 << 26

// ErrWire marks a malformed light-protocol frame.
var ErrWire = fmt.Errorf("light: malformed frame")

// HeadersRequest asks a serving peer for main-chain headers above
// FromHeight. Responses are chain.EncodeHeaders frames.
type HeadersRequest struct {
	FromHeight uint64
	Requester  identity.Address
	PubKey     []byte
	TsMicro    int64
	Sig        []byte
}

// SigningBytes is the canonical byte string covered by Sig.
func (r *HeadersRequest) SigningBytes() []byte {
	out := make([]byte, 0, 64)
	out = append(out, "medshare-light-headers:"...)
	out = binary.BigEndian.AppendUint64(out, r.FromHeight)
	out = append(out, r.Requester[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(r.TsMicro))
	return out
}

// ShareHeadRequest asks for a share's on-chain metadata with a
// state-membership proof.
type ShareHeadRequest struct {
	ShareID   string
	Requester identity.Address
	PubKey    []byte
	TsMicro   int64
	Sig       []byte
}

// SigningBytes is the canonical byte string covered by Sig.
func (r *ShareHeadRequest) SigningBytes() []byte {
	out := make([]byte, 0, 64+len(r.ShareID))
	out = append(out, "medshare-light-head:"...)
	out = append(out, r.ShareID...)
	out = append(out, r.Requester[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(r.TsMicro))
	return out
}

// ShareHead is the proven share-head response: the raw sharereg state
// value for the share plus its membership proof against the state root
// of the main-chain header at Height. The verifier matches the proof
// against its *own* copy of that header — nothing here is trusted.
type ShareHead struct {
	Height  uint64
	Meta    []byte
	Version statedb.Version
	Proof   merkle.Proof
}

// RowRequest asks for one row of a share's view by primary-key tuple.
type RowRequest struct {
	ShareID   string
	Key       reldb.Row
	Requester identity.Address
	PubKey    []byte
	TsMicro   int64
	Sig       []byte
}

// SigningBytes is the canonical byte string covered by Sig. The key
// tuple is covered via its ordered storage encoding.
func (r *RowRequest) SigningBytes() []byte {
	out := make([]byte, 0, 96+len(r.ShareID))
	out = append(out, "medshare-light-row:"...)
	out = append(out, r.ShareID...)
	out = append(out, 0)
	for _, v := range r.Key {
		out = v.AppendOrdered(out)
	}
	out = append(out, 0)
	out = append(out, r.Requester[:]...)
	return binary.BigEndian.AppendUint64(out, uint64(r.TsMicro))
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

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// wireReader walks a frame with bounds checking.
type wireReader struct{ buf []byte }

func (r *wireReader) version() error {
	if len(r.buf) == 0 || r.buf[0] != wireVersion {
		return ErrWire
	}
	r.buf = r.buf[1:]
	return nil
}

func (r *wireReader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, ErrWire
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrWire
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n > wireMaxLen || n > uint64(len(r.buf)) {
		return nil, ErrWire
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *wireReader) hash(dst *[32]byte) error {
	if len(r.buf) < 32 {
		return ErrWire
	}
	copy(dst[:], r.buf)
	r.buf = r.buf[32:]
	return nil
}

func (r *wireReader) done() error {
	if len(r.buf) != 0 {
		return ErrWire
	}
	return nil
}

func appendAuth(dst []byte, requester identity.Address, pubKey []byte, ts int64, sig []byte) []byte {
	dst = appendBytes(dst, requester[:])
	dst = appendBytes(dst, pubKey)
	dst = binary.AppendUvarint(dst, uint64(ts))
	return appendBytes(dst, sig)
}

func (r *wireReader) auth(requester *identity.Address, pubKey *[]byte, ts *int64, sig *[]byte) error {
	addr, err := r.bytes()
	if err != nil || len(addr) != len(*requester) {
		return ErrWire
	}
	copy(requester[:], addr)
	if *pubKey, err = r.bytes(); err != nil {
		return err
	}
	t, err := r.uvarint()
	if err != nil {
		return err
	}
	*ts = int64(t)
	*sig, err = r.bytes()
	return err
}

// EncodeHeadersRequest encodes r into its binary frame.
func EncodeHeadersRequest(r *HeadersRequest) []byte {
	dst := make([]byte, 0, 128)
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, r.FromHeight)
	return appendAuth(dst, r.Requester, r.PubKey, r.TsMicro, r.Sig)
}

// DecodeHeadersRequest parses a frame produced by EncodeHeadersRequest.
func DecodeHeadersRequest(raw []byte) (HeadersRequest, error) {
	rd := wireReader{buf: raw}
	var out HeadersRequest
	if err := rd.version(); err != nil {
		return out, err
	}
	var err error
	if out.FromHeight, err = rd.uvarint(); err != nil {
		return out, err
	}
	if err = rd.auth(&out.Requester, &out.PubKey, &out.TsMicro, &out.Sig); err != nil {
		return out, err
	}
	return out, rd.done()
}

// EncodeShareHeadRequest encodes r into its binary frame.
func EncodeShareHeadRequest(r *ShareHeadRequest) []byte {
	dst := make([]byte, 0, 160)
	dst = append(dst, wireVersion)
	dst = appendBytes(dst, []byte(r.ShareID))
	return appendAuth(dst, r.Requester, r.PubKey, r.TsMicro, r.Sig)
}

// DecodeShareHeadRequest parses a frame produced by
// EncodeShareHeadRequest.
func DecodeShareHeadRequest(raw []byte) (ShareHeadRequest, error) {
	rd := wireReader{buf: raw}
	var out ShareHeadRequest
	if err := rd.version(); err != nil {
		return out, err
	}
	id, err := rd.bytes()
	if err != nil {
		return out, err
	}
	out.ShareID = string(id)
	if err = rd.auth(&out.Requester, &out.PubKey, &out.TsMicro, &out.Sig); err != nil {
		return out, err
	}
	return out, rd.done()
}

// EncodeShareHead encodes the share-head response.
func EncodeShareHead(h *ShareHead) []byte {
	dst := make([]byte, 0, 256+len(h.Meta))
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, h.Height)
	dst = appendBytes(dst, h.Meta)
	dst = binary.AppendUvarint(dst, h.Version.Height)
	dst = binary.AppendUvarint(dst, uint64(h.Version.TxIndex))
	dst = binary.AppendUvarint(dst, uint64(h.Proof.Index))
	dst = binary.AppendUvarint(dst, uint64(len(h.Proof.Steps)))
	for _, s := range h.Proof.Steps {
		dst = append(dst, s.Sibling[:]...)
		if s.Left {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeShareHead parses a frame produced by EncodeShareHead.
func DecodeShareHead(raw []byte) (ShareHead, error) {
	rd := wireReader{buf: raw}
	var out ShareHead
	if err := rd.version(); err != nil {
		return out, err
	}
	var err error
	if out.Height, err = rd.uvarint(); err != nil {
		return out, err
	}
	if out.Meta, err = rd.bytes(); err != nil {
		return out, err
	}
	if out.Version.Height, err = rd.uvarint(); err != nil {
		return out, err
	}
	txIdx, err := rd.uvarint()
	if err != nil || txIdx > wireMaxLen {
		return out, ErrWire
	}
	out.Version.TxIndex = int(txIdx)
	idx, err := rd.uvarint()
	if err != nil || idx > wireMaxLen {
		return out, ErrWire
	}
	out.Proof.Index = int(idx)
	n, err := rd.uvarint()
	if err != nil || n > wireMaxLen {
		return out, ErrWire
	}
	for i := uint64(0); i < n; i++ {
		var s merkle.ProofStep
		if err := rd.hash(&s.Sibling); err != nil {
			return out, err
		}
		b, err := rd.byte()
		if err != nil {
			return out, err
		}
		s.Left = b != 0
		out.Proof.Steps = append(out.Proof.Steps, s)
	}
	return out, rd.done()
}

// EncodeRowRequest encodes r into its binary frame. The key tuple
// travels as its canonical row encoding.
func EncodeRowRequest(r *RowRequest) []byte {
	dst := make([]byte, 0, 192)
	dst = append(dst, wireVersion)
	dst = appendBytes(dst, []byte(r.ShareID))
	dst = r.Key.AppendCanonical(dst)
	return appendAuth(dst, r.Requester, r.PubKey, r.TsMicro, r.Sig)
}

// row reads one canonical row.
func (r *wireReader) row() (reldb.Row, error) {
	row, rest, err := reldb.CutRow(r.buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	r.buf = rest
	return row, nil
}

// DecodeRowRequest parses a frame produced by EncodeRowRequest.
func DecodeRowRequest(raw []byte) (RowRequest, error) {
	rd := wireReader{buf: raw}
	var out RowRequest
	if err := rd.version(); err != nil {
		return out, err
	}
	id, err := rd.bytes()
	if err != nil {
		return out, err
	}
	out.ShareID = string(id)
	if out.Key, err = rd.row(); err != nil {
		return out, err
	}
	if err = rd.auth(&out.Requester, &out.PubKey, &out.TsMicro, &out.Sig); err != nil {
		return out, err
	}
	return out, rd.done()
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
	dst = appendBytes(dst, schema)
	dst = f.Row.AppendCanonical(dst)
	dst = append(dst, f.Proof.Left[:]...)
	dst = append(dst, f.Proof.Right[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(f.Proof.Steps)))
	for _, s := range f.Proof.Steps {
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

// DecodeRowFetch parses a frame produced by EncodeRowFetch.
func DecodeRowFetch(raw []byte) (RowFetch, error) {
	rd := wireReader{buf: raw}
	var out RowFetch
	if err := rd.version(); err != nil {
		return out, err
	}
	var err error
	if out.Seq, err = rd.uvarint(); err != nil {
		return out, err
	}
	if err = rd.hash(&out.SchemaSum); err != nil {
		return out, err
	}
	rows, err := rd.uvarint()
	if err != nil || rows > wireMaxLen {
		return out, ErrWire
	}
	out.Rows = int(rows)
	if err = rd.hash(&out.Root); err != nil {
		return out, err
	}
	schemaRaw, err := rd.bytes()
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(schemaRaw, &out.Schema); err != nil {
		return out, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if out.Row, err = rd.row(); err != nil {
		return out, err
	}
	if err = rd.hash(&out.Proof.Left); err != nil {
		return out, err
	}
	if err = rd.hash(&out.Proof.Right); err != nil {
		return out, err
	}
	n, err := rd.uvarint()
	if err != nil || n > wireMaxLen {
		return out, ErrWire
	}
	for i := uint64(0); i < n; i++ {
		var s pmap.ProofStep
		if err := rd.hash(&s.Entry); err != nil {
			return out, err
		}
		if err := rd.hash(&s.Other); err != nil {
			return out, err
		}
		b, err := rd.byte()
		if err != nil {
			return out, err
		}
		s.PathLeft = b != 0
		out.Proof.Steps = append(out.Proof.Steps, s)
	}
	return out, rd.done()
}
