package merkle

import (
	"fmt"
	"testing"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestRootEmpty(t *testing.T) {
	if Root(nil) != (Hash{}) {
		t.Fatal("empty tree should have zero root")
	}
}

func TestRootSingleLeaf(t *testing.T) {
	l := [][]byte{[]byte("only")}
	if Root(l) != HashLeaf([]byte("only")) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
}

func TestRootDeterministic(t *testing.T) {
	a := Root(payloads(7))
	b := Root(payloads(7))
	if a != b {
		t.Fatal("root not deterministic")
	}
}

func TestRootSensitiveToContentAndOrder(t *testing.T) {
	base := Root(payloads(4))
	mod := payloads(4)
	mod[2] = []byte("tampered")
	if Root(mod) == base {
		t.Fatal("root insensitive to leaf change")
	}
	swapped := payloads(4)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if Root(swapped) == base {
		t.Fatal("root insensitive to leaf order")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// An interior node's children concatenation must not be confusable
	// with a leaf: HashLeaf(x) != HashNode split of the same bytes.
	a, b := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	joined := append(append([]byte{}, a[:]...), b[:]...)
	if HashLeaf(joined) == HashNode(a, b) {
		t.Fatal("no domain separation between leaves and nodes")
	}
}

// TestHashTreeNodeDomainSeparation: the three hash roles (leaf, binary
// interior, search-tree interior) must never collide on identical input
// bytes — the property that blocks cross-construction splicing between
// block trees and the table row tree.
func TestHashTreeNodeDomainSeparation(t *testing.T) {
	var l, e, r Hash
	copy(l[:], []byte("left-digest-left-digest-left-dig"))
	copy(e[:], []byte("entry-digest-entry-digest-entry-"))
	copy(r[:], []byte("right-digest-right-digest-right-"))
	tn := HashTreeNode(l, e, r)
	// Same 96 bytes hashed as a leaf payload must differ.
	var payload []byte
	payload = append(payload, l[:]...)
	payload = append(payload, e[:]...)
	payload = append(payload, r[:]...)
	if tn == HashLeaf(payload) {
		t.Fatal("tree-node hash collides with leaf hash of the same bytes")
	}
	// And must differ from binary-node combinations over the same parts.
	if tn == HashNode(HashNode(l, e), r) || tn == HashNode(l, HashNode(e, r)) {
		t.Fatal("tree-node hash collides with binary-node composition")
	}
	// Argument order matters (left/entry/right are positional).
	if HashTreeNode(l, e, r) == HashTreeNode(r, e, l) {
		t.Fatal("tree-node hash ignores child order")
	}
	if HashTreeNode(l, e, r) == HashTreeNode(e, l, r) {
		t.Fatal("tree-node hash ignores entry position")
	}
}
