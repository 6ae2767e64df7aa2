package statedb

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medshare/internal/reldb/pmap"
)

func TestGetAbsent(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Get("nope"); ok {
		t.Fatal("absent key found")
	}
	if s.Len() != 0 {
		t.Fatal("empty store has keys")
	}
}

func TestCommitAndGet(t *testing.T) {
	s := NewStore()
	ver := Version{Height: 3, TxIndex: 1}
	s.Commit(WriteSet{"a": []byte("1")}, ver)
	got, gotVer, ok := s.Get("a")
	if !ok || string(got) != "1" || gotVer != ver {
		t.Fatalf("Get = %q, %v, %v", got, gotVer, ok)
	}
}

func TestCommitDelete(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	s.Commit(WriteSet{"a": nil}, Version{Height: 2})
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("abc")}, Version{Height: 1})
	got, _, _ := s.Get("a")
	got[0] = 'X'
	again, _, _ := s.Get("a")
	if string(again) != "abc" {
		t.Fatal("Get aliases internal storage")
	}
}

func TestSimReadYourWrites(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("old")}, Version{Height: 1})
	sim := s.NewSim()
	sim.Put("a", []byte("new"))
	got, ok := sim.Get("a")
	if !ok || string(got) != "new" {
		t.Fatalf("sim.Get = %q, %v", got, ok)
	}
	sim.Del("a")
	if _, ok := sim.Get("a"); ok {
		t.Fatal("sim sees deleted key")
	}
	// The store itself is untouched until commit.
	if got, _, _ := s.Get("a"); string(got) != "old" {
		t.Fatal("sim leaked into store")
	}
}

func TestRootChangesWithState(t *testing.T) {
	s := NewStore()
	r0 := s.Root()
	s.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	r1 := s.Root()
	if r0 == r1 {
		t.Fatal("root unchanged after write")
	}
	s.Commit(WriteSet{"a": nil}, Version{Height: 2})
	r2 := s.Root()
	if r2 == r1 {
		t.Fatal("root unchanged after delete")
	}
	// Same contents but different version → different root (versions are
	// part of the commitment, so replicas must agree on them too).
	s2 := NewStore()
	s2.Commit(WriteSet{"a": []byte("1")}, Version{Height: 9})
	s3 := NewStore()
	s3.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	if s2.Root() == s3.Root() {
		t.Fatal("root insensitive to version")
	}
	if s3.Root() != r1 {
		t.Fatal("identical state should give identical root")
	}
}

func TestRootDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(order []int) *Store {
			s := NewStore()
			for _, i := range order {
				s.Commit(WriteSet{fmt.Sprintf("k%d", i): []byte(fmt.Sprintf("v%d", i))},
					Version{Height: uint64(i + 1)})
			}
			return s
		}
		n := 2 + rng.Intn(10)
		fwd := make([]int, n)
		for i := range fwd {
			fwd[i] = i
		}
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		return build(fwd).Root() == build(rev).Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependentAndVersionFaithful(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("1"), "b": []byte("2")}, Version{Height: 1, TxIndex: 3})
	c := s.Clone()
	if c.Root() != s.Root() {
		t.Fatal("clone root differs from source")
	}
	if _, ver, ok := c.Get("a"); !ok || ver != (Version{Height: 1, TxIndex: 3}) {
		t.Fatalf("clone lost the version: %v %v", ver, ok)
	}
	before := s.Root()
	c.Commit(WriteSet{"a": []byte("x"), "b": nil, "c": []byte("3")}, Version{Height: 2})
	if s.Root() != before || s.Len() != 2 {
		t.Fatal("writing the clone changed the source")
	}
	s.Commit(WriteSet{"d": []byte("4")}, Version{Height: 2})
	if _, _, ok := c.Get("d"); ok {
		t.Fatal("writing the source changed the clone")
	}
}

// goldenState is the fixed state TestStateRootGolden pins: sixteen share
// keys and one other, at assorted versions.
func goldenState() *Store {
	s := NewStore()
	for i := 0; i < 16; i++ {
		s.Commit(WriteSet{fmt.Sprintf("share/s%02d", i): []byte(fmt.Sprintf(`{"seq":%d}`, i))},
			Version{Height: uint64(i/4 + 1), TxIndex: i % 4})
	}
	s.Commit(WriteSet{"registry/count": []byte("16")}, Version{Height: 5})
	return s
}

// TestStateRootGolden pins the state commitment across processes and
// builds: a fixed state must hash to a hard-coded root, and a fixed
// key's proof must verify against it. Stores in one process share their
// tree shape, so only a constant catches a root that depends on a
// per-process seed, on a changed leaf encoding or on a changed shape rule.
func TestStateRootGolden(t *testing.T) {
	const want = "caca92fe6322604ee3e53e75cdb2a72bc921dbeb80f9712199a27c1d4f12cdb8"
	s := goldenState()
	root := s.Root()
	if got := hex.EncodeToString(root[:]); got != want {
		t.Fatalf("state root = %s, pinned %s", got, want)
	}
	ref := newRefStore()
	for _, e := range s.Export() {
		ref.Commit(WriteSet{e.Key: e.Value}, e.Version)
	}
	if ref.Root() != root {
		t.Fatal("pinned root differs from the reference model's")
	}
	v, ver, proof, proofRoot, err := s.ProveKey("share/s07")
	if err != nil {
		t.Fatal(err)
	}
	if proofRoot != root || len(proof.Steps) == 0 || !VerifyKeyProof(root, "share/s07", v, ver, proof) {
		t.Fatalf("proof of share/s07 (%d steps) does not verify against the pinned root", len(proof.Steps))
	}
}

// storeOf returns a store holding keys k0..k(n-1), each at its own
// version.
func storeOf(n int) *Store {
	s := NewStore()
	for i := 0; i < n; i++ {
		s.Commit(WriteSet{fmt.Sprintf("k%d", i): []byte(fmt.Sprintf("v%d", i))}, Version{Height: uint64(i + 1)})
	}
	return s
}

// TestKeyProofVerifiesAllSizes: in stores of 1 to 33 keys, every key's
// proof verifies against Root, and ProveKey names that root.
func TestKeyProofVerifiesAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		s := storeOf(n)
		root := s.Root()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", i)
			v, ver, proof, proofRoot, err := s.ProveKey(k)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, k, err)
			}
			if proofRoot != root || !VerifyKeyProof(root, k, v, ver, proof) {
				t.Fatalf("n=%d %s: proof rejected", n, k)
			}
		}
	}
}

// TestKeyProofRejectsForgery: a proof binds the key, the value, the
// version, every digest it carries and the root.
func TestKeyProofRejectsForgery(t *testing.T) {
	s := storeOf(12)
	root := s.Root()
	v, ver, proof, _, err := s.ProveKey("k3")
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Steps) == 0 {
		t.Fatal("expected steps")
	}
	if VerifyKeyProof(root, "k4", v, ver, proof) {
		t.Error("proof verified for another key")
	}
	if VerifyKeyProof(root, "k3", []byte("forged"), ver, proof) {
		t.Error("forged value verified")
	}
	if VerifyKeyProof(root, "k3", v, Version{Height: ver.Height, TxIndex: 1}, proof) {
		t.Error("proof verified under another version")
	}
	wrong := root
	wrong[0] ^= 1
	if VerifyKeyProof(wrong, "k3", v, ver, proof) {
		t.Error("wrong root verified")
	}
	for name, corrupt := range map[string]func(p *pmap.Proof){
		"left":      func(p *pmap.Proof) { p.Left[0] ^= 1 },
		"right":     func(p *pmap.Proof) { p.Right[0] ^= 1 },
		"entry":     func(p *pmap.Proof) { p.Steps[0].Entry[0] ^= 1 },
		"other":     func(p *pmap.Proof) { p.Steps[0].Other[0] ^= 1 },
		"side":      func(p *pmap.Proof) { p.Steps[0].PathLeft = !p.Steps[0].PathLeft },
		"last step": func(p *pmap.Proof) { p.Steps = p.Steps[:len(p.Steps)-1] },
	} {
		p := proof
		p.Steps = append([]pmap.ProofStep(nil), proof.Steps...)
		corrupt(&p)
		if VerifyKeyProof(root, "k3", v, ver, p) {
			t.Errorf("proof with a corrupted %s verified", name)
		}
	}
}

// TestProveKeyAbsent: an absent key has no proof.
func TestProveKeyAbsent(t *testing.T) {
	for _, s := range []*Store{NewStore(), storeOf(3)} {
		if _, _, _, _, err := s.ProveKey("k3"); err == nil {
			t.Fatal("proved an absent key")
		}
	}
}

// BenchmarkBlockRoot is one block's work on the state root: clone the
// published state, commit one write, and take the new root.
func BenchmarkBlockRoot(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 600)
	for _, n := range []int{16, 1 << 10, 16 << 10} {
		name := fmt.Sprint(n)
		if n >= 1<<10 {
			name = fmt.Sprintf("%dk", n>>10)
		}
		b.Run(name, func(b *testing.B) {
			s := NewStore()
			ws := WriteSet{}
			for i := 0; i < n; i++ {
				ws[fmt.Sprintf("share/%06d", i)] = val
			}
			s.Commit(ws, Version{Height: 1})
			s.Root()
			for i := 0; b.Loop(); i++ {
				c := s.Clone()
				c.Commit(WriteSet{fmt.Sprintf("share/%06d", i%n): val}, Version{Height: uint64(i + 2)})
				c.Root()
			}
		})
	}
}
