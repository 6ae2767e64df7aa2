package pmap

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// FuzzTransientOps drives an arbitrary operation sequence decoded from
// the fuzz input against a Transient and a plain-map reference model.
// The first input byte selects the configuration — bit0 keys the
// priorities with a seed — and the rest is consumed three bytes at a
// time as (opcode, key, value) over a deliberately small key space:
// Insert (ascending runs take the spine fast path, the first
// out-of-order key settles it) or GetBytes. After the sequence the
// frozen map must agree with the reference on contents, satisfy every
// structural invariant, and digest to the same Merkle root as a
// FromSorted rebuild of the reference under the same seed (transient
// building is observationally identical to any other construction
// path).
func FuzzTransientOps(f *testing.F) {
	f.Add([]byte{0})
	// Ascending run on the spine fast path, then out-of-order inserts.
	f.Add([]byte{0,
		0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5,
		2, 3, 0, 1, 2, 9, 0, 6, 6,
	})
	// Seeded priorities, duplicates and lookups.
	f.Add([]byte{1,
		0, 10, 1, 0, 20, 2, 0, 10, 3, 1, 10, 0, 0, 30, 4, 1, 20, 0,
	})
	// Lookups of absent keys between out-of-order inserts.
	f.Add([]byte{3,
		1, 0, 7, 2, 3, 0, 1, 40, 8, 2, 6, 0, 3, 9, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, ops := data[0], data[1:]
		var seed *Seed
		if mode&1 != 0 {
			seed = NewSeed([]byte("fuzz-transient-seed"))
		}
		key := func(b byte) string { return fmt.Sprintf("k%02d", int(b)%64) }

		ref := make(map[string]int)
		tr := NewTransient[int](seed)
		for i := 0; i+2 < len(ops); i += 3 {
			k, v := key(ops[i+1]), int(ops[i+2])
			_, refEx := ref[k]
			if ops[i]%2 == 0 {
				added := tr.Insert(k, v)
				if added == refEx {
					t.Fatalf("op %d: Insert(%q) added=%v, present=%v", i, k, added, refEx)
				}
				if added {
					ref[k] = v
				}
			} else {
				got, ok := tr.GetBytes([]byte(k))
				want, refOK := ref[k]
				if ok != refOK || (ok && got != want) {
					t.Fatalf("op %d: GetBytes(%q)=%d,%v want %d,%v", i, k, got, ok, want, refOK)
				}
			}
			if tr.Len() != len(ref) {
				t.Fatalf("op %d: Len=%d want %d", i, tr.Len(), len(ref))
			}
		}

		m := tr.Freeze()
		if m.Len() != len(ref) {
			t.Fatalf("frozen Len=%d want %d", m.Len(), len(ref))
		}
		var keys []string
		var vals []int
		m.Ascend(func(k string, v int) bool { keys = append(keys, k); vals = append(vals, v); return true })
		if !sort.StringsAreSorted(keys) {
			t.Fatal("iteration out of order")
		}
		for i, k := range keys {
			if ref[k] != vals[i] {
				t.Fatalf("content mismatch at %q", k)
			}
		}
		checkInvariants(t, m)

		// Digest equality against the reference built by the other path:
		// the transient is observationally identical to FromSorted.
		rebuilt := FromSortedSeeded(seed, keys, vals)
		if m.MerkleRoot(testLeaf) != rebuilt.MerkleRoot(testLeaf) {
			t.Fatal("transient Merkle root diverges from a FromSorted rebuild of the same contents")
		}
	})
}

// TestSeedPrioIsHMAC pins the priority derivation to real HMAC-SHA-256:
// the hand-rolled two-pass construction in Seed.prio must agree with
// crypto/hmac for short, block-length, and over-block keys.
func TestSeedPrioIsHMAC(t *testing.T) {
	keys := [][]byte{
		[]byte("k"),
		[]byte("a 32-byte secret 0123456789abcd!"),
		bytes.Repeat([]byte{0x5a}, 64),
		bytes.Repeat([]byte{0xa5}, 100), // > block size: pre-hashed
	}
	msgs := []string{"", "x", "row-key-0042", string(bytes.Repeat([]byte{0}, 200))}
	for _, k := range keys {
		s := NewSeed(k)
		for _, m := range msgs {
			mac := hmac.New(sha256.New, k)
			mac.Write([]byte(m))
			want := binary.BigEndian.Uint64(mac.Sum(nil)[:8])
			if got := s.prio(m); got != want {
				t.Fatalf("prio(%q) under %d-byte key = %x, want HMAC %x", m, len(k), got, want)
			}
		}
	}
	// The nil seed is plain SHA-256 of the key.
	var nilSeed *Seed
	d := sha256.Sum256([]byte("plain"))
	if nilSeed.prio("plain") != binary.BigEndian.Uint64(d[:8]) {
		t.Fatal("nil seed must derive unkeyed SHA-256 priorities")
	}
	if NewSeed(nil) != nil || NewSeed([]byte{}) != nil {
		t.Fatal("empty secrets must yield the nil (unkeyed) seed")
	}
	if !NewSeed([]byte("s")).Matches([]byte("s")) || NewSeed([]byte("s")).Matches([]byte("t")) || !nilSeed.Matches(nil) {
		t.Fatal("Matches misbehaves")
	}
}
