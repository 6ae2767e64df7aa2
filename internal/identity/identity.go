// Package identity provides the key material and addressing used by peers
// and blockchain nodes: ed25519 key pairs, short printable addresses
// derived from public keys, and detached signatures over arbitrary
// payloads.
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// AddressLen is the byte length of an Address.
const AddressLen = 20

// Address identifies a principal: the first 20 bytes of the SHA-256 of the
// public key.
type Address [AddressLen]byte

// String renders the address as hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// Short returns an abbreviated form for logs.
func (a Address) Short() string { return hex.EncodeToString(a[:4]) }

// IsZero reports whether the address is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// MarshalText implements encoding.TextMarshaler so addresses serialize as
// hex in JSON maps and struct fields.
func (a Address) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Address) UnmarshalText(text []byte) error {
	got, err := ParseAddress(string(text))
	if err != nil {
		return err
	}
	*a = got
	return nil
}

// ParseAddress decodes a hex address produced by Address.String.
func ParseAddress(s string) (Address, error) {
	var a Address
	b, err := hex.DecodeString(s)
	if err != nil {
		return a, fmt.Errorf("identity: bad address %q: %w", s, err)
	}
	if len(b) != AddressLen {
		return a, fmt.Errorf("identity: bad address length %d", len(b))
	}
	copy(a[:], b)
	return a, nil
}

// AddressOf derives the address for a public key.
func AddressOf(pub ed25519.PublicKey) Address {
	h := sha256.Sum256(pub)
	var a Address
	copy(a[:], h[:AddressLen])
	return a
}

// Identity is a named key pair.
type Identity struct {
	// Name is a human-readable label ("Doctor", "Patient", ...). It plays
	// no role in authentication; addresses do.
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	addr Address
}

// NewFrom generates an identity from the given entropy source. Tests pass
// a deterministic reader so identities (and therefore addresses) are
// reproducible.
func NewFrom(name string, r io.Reader) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("identity: generating key for %s: %w", name, err)
	}
	return &Identity{Name: name, priv: priv, pub: pub, addr: AddressOf(pub)}, nil
}

// MustNew generates a fresh identity using crypto/rand and panics on
// failure; crypto/rand failures are fatal.
func MustNew(name string) *Identity {
	id, err := NewFrom(name, rand.Reader)
	if err != nil {
		panic(err)
	}
	return id
}

// FromSeed derives a deterministic identity from a seed string, so that
// separately configured processes (cmd/medshared instances) can
// precompute each other's addresses. Seed-derived keys trade entropy for
// reproducibility: use them for demos and tests, not deployments.
func FromSeed(name, seed string) *Identity {
	id, err := NewFrom(name, newSeedReader(seed))
	if err != nil {
		// The seed reader never fails; ed25519 generation from a working
		// reader cannot error.
		panic(err)
	}
	return id
}

// seedReader expands a seed string into an unbounded deterministic byte
// stream (SHA-256 in counter mode).
type seedReader struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func newSeedReader(seed string) *seedReader {
	return &seedReader{seed: []byte("medshare-identity:" + seed)}
}

func (r *seedReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			h := sha256.New()
			h.Write(r.seed)
			var ctr [8]byte
			for i := 0; i < 8; i++ {
				ctr[i] = byte(r.ctr >> (8 * i))
			}
			r.ctr++
			h.Write(ctr[:])
			r.buf = h.Sum(nil)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// Address returns the identity's address.
func (id *Identity) Address() Address { return id.addr }

// PublicKey returns the public key.
func (id *Identity) PublicKey() ed25519.PublicKey { return id.pub }

// Sign produces a detached ed25519 signature over msg.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Errors returned by Verify.
var (
	ErrBadSignature = errors.New("identity: signature verification failed")
	ErrAddrMismatch = errors.New("identity: public key does not match address")
)

// Verify checks that sig is a valid signature of msg by the key behind
// addr.
func Verify(addr Address, pub ed25519.PublicKey, msg, sig []byte) error {
	if AddressOf(pub) != addr {
		return ErrAddrMismatch
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}
