package merkle_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

// Membership proofs over merkle's hash roles are built by pmap's Merkle
// search tree (HashLeaf entries under HashTreeNode interiors). These
// tests check that those proofs verify against the root the same roles
// compute, and that forging any part of one is caught.

// leaf digests one entry as a domain-separated leaf over "key=value".
func leaf(k string, v []byte) merkle.Hash {
	return merkle.HashLeaf([]byte(k + "=" + string(v)))
}

// treeOf returns a map of n entries leaf-0..leaf-(n-1) and their keys.
func treeOf(n int) (pmap.Map[[]byte], []string) {
	var m pmap.Map[[]byte]
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		m, _ = m.Set(keys[i], []byte(fmt.Sprintf("leaf-%d", i)))
	}
	return m, keys
}

func prove(t *testing.T, m pmap.Map[[]byte], k string) (pmap.Proof, []byte) {
	t.Helper()
	v, ok := m.Get(k)
	if !ok {
		t.Fatalf("%s: absent", k)
	}
	proof, ok := m.Prove(k, leaf)
	if !ok {
		t.Fatalf("%s: no proof", k)
	}
	return proof, v
}

func TestProveVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 17; n++ {
		m, keys := treeOf(n)
		root := m.MerkleRoot(leaf)
		for _, k := range keys {
			proof, v := prove(t, m, k)
			if !pmap.VerifyProof(root, leaf(k, v), proof) {
				t.Fatalf("n=%d %s: proof rejected", n, k)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	m, keys := treeOf(8)
	root := m.MerkleRoot(leaf)
	proof, _ := prove(t, m, keys[3])
	if pmap.VerifyProof(root, leaf(keys[3], []byte("forged")), proof) {
		t.Fatal("forged leaf verified")
	}
}

func TestVerifyRejectsWrongProof(t *testing.T) {
	m, keys := treeOf(8)
	root := m.MerkleRoot(leaf)
	for _, k := range keys {
		proof, v := prove(t, m, k)
		if len(proof.Steps) == 0 {
			continue // the root entry has no ancestors
		}
		proof.Steps[0].Other[0] ^= 1
		if pmap.VerifyProof(root, leaf(k, v), proof) {
			t.Fatalf("%s: corrupted proof verified", k)
		}
		return
	}
	t.Fatal("expected steps")
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	m, keys := treeOf(5)
	proof, v := prove(t, m, keys[0])
	var wrong merkle.Hash
	wrong[0] = 1
	if pmap.VerifyProof(wrong, leaf(keys[0], v), proof) {
		t.Fatal("wrong root verified")
	}
}

func TestProveVerifyQuick(t *testing.T) {
	f := func(seed uint8, extra []byte) bool {
		n := int(seed%31) + 1
		m, keys := treeOf(n)
		k := keys[int(seed)%n]
		if len(extra) > 0 {
			m, _ = m.Set(k, extra)
		}
		root := m.MerkleRoot(leaf)
		v, _ := m.Get(k)
		proof, ok := m.Prove(k, leaf)
		return ok && pmap.VerifyProof(root, leaf(k, v), proof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
