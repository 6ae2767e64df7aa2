package pmap

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
)

// Keyed tree priorities: by default a node's heap priority is the
// unkeyed SHA-256 of its key, so anyone who controls key bytes can grind
// offline for priority patterns that skew the treap (a performance
// degradation, never an integrity one — digests commit to content
// regardless of shape). A Seed replaces that derivation with
// HMAC-SHA-256 under a per-map secret: without the secret the priorities
// are unpredictable, so grinding requires the secret itself. The price
// is that tree shape becomes seed-specific — two maps agree on shape
// (and hence on Merkle digests) only when they hold the same entries
// AND the same seed, which is exactly what the sharing layer wants: the
// seed is a per-share secret, every replica of one share uses it, and
// replicas of the same share still converge to identical shapes while
// outsiders cannot predict them.

// hmacBlockSize is SHA-256's block size (the HMAC pad width).
const hmacBlockSize = 64

// Seed derives keyed treap priorities via HMAC-SHA-256. A nil *Seed
// means unkeyed priorities (plain SHA-256 of the key). Seeds are
// immutable after construction and safe for concurrent use.
type Seed struct {
	// secret is the caller's key material, kept for equality checks
	// (replicas compare secrets, not pad blocks).
	secret []byte
	// ipad and opad are the precomputed HMAC pad blocks, so each
	// priority derivation is two SHA-256 runs with no per-call key prep.
	ipad, opad [hmacBlockSize]byte
}

// NewSeed builds a Seed from the given secret. An empty secret returns
// nil (unkeyed priorities), so callers can plumb an optional secret
// without branching.
func NewSeed(secret []byte) *Seed {
	if len(secret) == 0 {
		return nil
	}
	s := &Seed{secret: append([]byte(nil), secret...)}
	key := s.secret
	if len(key) > hmacBlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	for i := 0; i < hmacBlockSize; i++ {
		var b byte
		if i < len(key) {
			b = key[i]
		}
		s.ipad[i] = b ^ 0x36
		s.opad[i] = b ^ 0x5c
	}
	return s
}

// Secret returns the seed's key material (read-only; callers must not
// mutate it). Nil receivers return nil.
func (s *Seed) Secret() []byte {
	if s == nil {
		return nil
	}
	return s.secret
}

// Matches reports whether the seed was built from the given secret; a
// nil seed matches only the empty secret.
func (s *Seed) Matches(secret []byte) bool {
	if s == nil {
		return len(secret) == 0
	}
	return len(s.secret) == len(secret) && subtle.ConstantTimeCompare(s.secret, secret) == 1
}

// prio derives the heap priority of k: HMAC-SHA-256(secret, k) for a
// seeded map, plain SHA-256(k) otherwise (the two constructions also
// disagree on every key, so mixing seeded and unseeded nodes in one
// tree is structurally impossible). The HMAC input is assembled in a
// stack buffer, so a key of up to 64 bytes derives without allocating.
func (s *Seed) prio(k string) uint64 {
	if s == nil {
		return prio(k)
	}
	var stack [2 * hmacBlockSize]byte
	buf := append(append(stack[:0], s.ipad[:]...), k...)
	inner := sha256.Sum256(buf)
	buf = append(append(stack[:0], s.opad[:]...), inner[:]...)
	d := sha256.Sum256(buf)
	return binary.BigEndian.Uint64(d[:8])
}
