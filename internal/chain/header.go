package chain

import (
	"encoding/binary"
	"fmt"
	"sync"

	"medshare/internal/merkle"
	"medshare/internal/wire"
)

// This file is the light-client half of the chain package: a compact
// binary codec for bare headers (the /v1/light/headers HTTP body moves
// them in bulk, so base64-in-JSON overhead would dominate the sync cost
// a light client exists to avoid) and HeaderChain, a standalone header-only
// verifier. A HeaderChain holds no bodies and replays nothing: it
// anchors on the locally computed deterministic genesis and accepts a
// header only if it extends the tip by exactly one height, links to the
// tip's hash, and passes the pluggable consensus check. That is enough
// to trust every header's StateRoot, which is the root all light-client
// proofs verify against.

// headerWireVersion tags the binary header frame layout.
const headerWireVersion = 1

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

// minHeaderLen is the smallest encoded header: the three hashes, the
// proposer address and the difficulty byte raw, one byte for every
// varint and length.
const minHeaderLen = 3*len(merkle.Hash{}) + len(Header{}.Proposer) + 6

func readHeader(r *wire.Reader, h *Header) {
	h.Height = r.Uvarint()
	r.Fixed(h.PrevHash[:])
	r.Fixed(h.TxRoot[:])
	r.Fixed(h.StateRoot[:])
	h.TimestampMicro = int64(r.Uvarint())
	r.Fixed(h.Proposer[:])
	h.Nonce = r.Uvarint()
	h.Difficulty = r.Byte()
	h.ProposerPub = r.Bytes()
	h.Sig = r.Bytes()
}

// DecodeHeaders parses a frame produced by EncodeHeaders. The headers
// alias raw. Trailing bytes are rejected.
func DecodeHeaders(raw []byte) ([]Header, error) {
	r := wire.NewReader(raw, errBlockWire)
	if r.Byte() != headerWireVersion {
		r.Fail("header frame version")
	}
	out := make([]Header, r.Count(minHeaderLen))
	for i := range out {
		readHeader(&r, &out[i])
	}
	if err := r.Done(); err != nil {
		return nil, err
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
