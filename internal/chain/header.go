package chain

import (
	"encoding/binary"
	"fmt"
	"sync"

	"medshare/internal/merkle"
	"medshare/internal/wire"
)

// This file is the light-client half of the chain package: a compact
// binary codec for bare headers (the chain.headers RPC moves these in
// bulk, so base64-in-JSON overhead would dominate the sync cost a light
// client exists to avoid) and HeaderChain, a standalone header-only
// verifier. A HeaderChain holds no bodies and replays nothing: it
// anchors on the locally computed deterministic genesis and accepts a
// header only if it extends the tip by exactly one height, links to the
// tip's hash, and passes the pluggable consensus check. That is enough
// to trust every header's StateRoot, which is the root all light-client
// proofs verify against.

// headerWireVersion tags the binary header frame layout.
const headerWireVersion = 1

// headerWireMaxLen caps the header count of a batch frame, so a corrupt
// count cannot drive a huge allocation before the headers are read.
const headerWireMaxLen = 1 << 20

// errHeaderWire marks a malformed binary header frame.
var errHeaderWire = fmt.Errorf("chain: malformed header frame")

// AppendHeaderBinary appends the compact binary encoding of h to dst.
// Fixed-width fields travel raw; only the proposer public key and
// signature are length-prefixed (varint).
func AppendHeaderBinary(dst []byte, h *Header) []byte {
	dst = binary.AppendUvarint(dst, h.Height)
	dst = append(dst, h.PrevHash[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = binary.AppendUvarint(dst, uint64(h.TimestampMicro))
	dst = append(dst, h.Proposer[:]...)
	dst = binary.AppendUvarint(dst, h.Nonce)
	dst = append(dst, h.Difficulty)
	dst = wire.AppendBytes(dst, h.ProposerPub)
	return wire.AppendBytes(dst, h.Sig)
}

// EncodeHeaders encodes a batch of headers into one binary frame:
// version byte, count, then each header via AppendHeaderBinary.
func EncodeHeaders(hs []Header) []byte {
	dst := make([]byte, 0, 1+len(hs)*200)
	dst = append(dst, headerWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(hs)))
	for i := range hs {
		dst = AppendHeaderBinary(dst, &hs[i])
	}
	return dst
}

// headerReader walks a frame with bounds checking.
type headerReader struct{ buf []byte }

// uvarint reads a minimal varint: a longer encoding of the same value
// would give two frames for one header.
func (r *headerReader) uvarint() (uint64, error) {
	v, n := wire.Uvarint(r.buf)
	if n == 0 {
		return 0, errHeaderWire
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *headerReader) hash(dst *merkle.Hash) error {
	if len(r.buf) < len(dst) {
		return errHeaderWire
	}
	copy(dst[:], r.buf)
	r.buf = r.buf[len(dst):]
	return nil
}

func (r *headerReader) raw(n int) ([]byte, error) {
	if n > len(r.buf) {
		return nil, errHeaderWire
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out, nil
}

// bytes reads a length-prefixed field. The length is checked against
// the rest of the frame, which bounds it without a cap of its own: the
// decoder accepts every field the encoder writes.
func (r *headerReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.buf)) {
		return nil, errHeaderWire
	}
	return r.raw(int(n))
}

func (r *headerReader) header(h *Header) error {
	var err error
	if h.Height, err = r.uvarint(); err != nil {
		return err
	}
	if err = r.hash(&h.PrevHash); err != nil {
		return err
	}
	if err = r.hash(&h.TxRoot); err != nil {
		return err
	}
	if err = r.hash(&h.StateRoot); err != nil {
		return err
	}
	ts, err := r.uvarint()
	if err != nil {
		return err
	}
	h.TimestampMicro = int64(ts)
	prop, err := r.raw(len(h.Proposer))
	if err != nil {
		return err
	}
	copy(h.Proposer[:], prop)
	if h.Nonce, err = r.uvarint(); err != nil {
		return err
	}
	diff, err := r.raw(1)
	if err != nil {
		return err
	}
	h.Difficulty = diff[0]
	if h.ProposerPub, err = r.bytes(); err != nil {
		return err
	}
	h.Sig, err = r.bytes()
	return err
}

// DecodeHeaders parses a frame produced by EncodeHeaders. Trailing
// bytes are rejected.
func DecodeHeaders(raw []byte) ([]Header, error) {
	r := headerReader{buf: raw}
	ver, err := r.raw(1)
	if err != nil || ver[0] != headerWireVersion {
		return nil, errHeaderWire
	}
	n, err := r.uvarint()
	if err != nil || n > headerWireMaxLen {
		return nil, errHeaderWire
	}
	out := make([]Header, 0, n)
	for i := uint64(0); i < n; i++ {
		var h Header
		if err := r.header(&h); err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	if len(r.buf) != 0 {
		return nil, errHeaderWire
	}
	return out, nil
}

// HeaderVerifier checks one header's consensus validity (typically
// consensus.Engine.VerifyHeader). Kept as a function type so chain does
// not import consensus.
type HeaderVerifier func(*Header) error

// HeaderChain is a header-only view of one network's main chain: the
// deterministic genesis plus every verified header in height order.
// Append enforces height+1 linkage, parent-hash continuity, and the
// consensus check — no body replay, no state. Safe for concurrent use.
type HeaderChain struct {
	mu      sync.RWMutex
	headers []Header // index == height; headers[0] is genesis
	verify  HeaderVerifier
}

// NewHeaderChain anchors a header chain on the locally computed genesis
// of the named network. verify may be nil (linkage-only, for tests).
func NewHeaderChain(network string, verify HeaderVerifier) *HeaderChain {
	g := Genesis(network)
	return &HeaderChain{headers: []Header{g.Header}, verify: verify}
}

// Height returns the tip height (0 = genesis only).
func (hc *HeaderChain) Height() uint64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	return hc.headers[len(hc.headers)-1].Height
}

// Head returns a copy of the tip header.
func (hc *HeaderChain) Head() Header {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	return hc.headers[len(hc.headers)-1]
}

// AtHeight returns a copy of the header at the given height.
func (hc *HeaderChain) AtHeight(height uint64) (Header, bool) {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if height >= uint64(len(hc.headers)) {
		return Header{}, false
	}
	return hc.headers[height], true
}

// Append verifies h against the tip and extends the chain. A header at
// or below the tip height is reported via ErrHeaderStale (idempotent
// re-delivery is not an error worth retrying); a gap via ErrHeaderGap.
func (hc *HeaderChain) Append(h Header) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	tip := &hc.headers[len(hc.headers)-1]
	switch {
	case h.Height <= tip.Height:
		return ErrHeaderStale
	case h.Height > tip.Height+1:
		return fmt.Errorf("%w: tip %d, got %d", ErrHeaderGap, tip.Height, h.Height)
	}
	if tipHash := tip.Hash(); h.PrevHash != tipHash {
		return fmt.Errorf("chain: header %d does not link to tip %x", h.Height, tipHash[:6])
	}
	if hc.verify != nil {
		if err := hc.verify(&h); err != nil {
			return fmt.Errorf("chain: header %d rejected: %w", h.Height, err)
		}
	}
	hc.headers = append(hc.headers, h)
	return nil
}

// Bytes reports the retained memory of the header chain (binary
// encoding size — the deterministic "state a light client carries for
// the chain" number, part of light.Client.StateBytes).
func (hc *HeaderChain) Bytes() int {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := 0
	for i := range hc.headers {
		n += headerBinarySize(&hc.headers[i])
	}
	return n
}

func headerBinarySize(h *Header) int {
	// Three hashes + proposer address + fixed fields, plus the two
	// variable tails; varints approximated by their encoded length.
	return len(AppendHeaderBinary(make([]byte, 0, 256), h))
}

// Errors of the header-only chain.
var (
	ErrHeaderStale = fmt.Errorf("chain: header at or below tip")
	ErrHeaderGap   = fmt.Errorf("chain: header gap")
)
