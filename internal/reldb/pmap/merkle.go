package pmap

import "medshare/internal/merkle"

// The Merkle layer: every node lazily caches the digest of its subtree,
//
//	dig(n) = merkle.HashTreeNode(dig(n.left), leaf(n.key, n.val), dig(n.right))
//
// with the empty subtree digesting to the all-zero hash. Because the
// treap shape is a pure function of the key set, the root digest is a
// canonical commitment to the map's contents: equal content ⇔ equal
// root, independent of mutation history. Path copying replaces exactly
// the nodes whose digests change, so after a k-edit delta the next
// MerkleRoot recomputes only O(k log n) fresh nodes; everything shared
// with older snapshots keeps its cached digest.

// digest returns (computing and caching as needed) the subtree digest.
func digest[V any](n *node[V], leaf LeafFunc[V]) Hash {
	if n == nil {
		return Hash{}
	}
	if p := n.dig.Load(); p != nil {
		return *p
	}
	d := merkle.HashTreeNode(digest(n.left, leaf), leaf(n.key, n.val), digest(n.right, leaf))
	n.dig.Store(&d)
	return d
}

// MerkleRoot returns the canonical Merkle digest of the whole map. The
// empty map's root is the all-zero hash.
func (m Map[V]) MerkleRoot(leaf LeafFunc[V]) Hash {
	return digest(m.root, leaf)
}

// CachedRoot returns the Merkle root and true when it is available
// without hashing anything: the empty map, or a root whose digest a
// previous MerkleRoot call (on this map or any map sharing its root
// node) already cached.
func (m Map[V]) CachedRoot() (Hash, bool) {
	if m.root == nil {
		return Hash{}, true
	}
	if p := m.root.dig.Load(); p != nil {
		return *p, true
	}
	return Hash{}, false
}

// ProofStep is one ancestor on the path from a proven entry to the root.
type ProofStep struct {
	// Entry is the ancestor's own entry digest (leaf(key, val)).
	Entry Hash `json:"entry"`
	// Other is the digest of the ancestor's other-side subtree.
	Other Hash `json:"other"`
	// PathLeft reports whether the proven subtree is the ancestor's LEFT
	// child.
	PathLeft bool `json:"pathLeft"`
}

// Proof is a membership proof for one entry of the map: the entry's own
// node's child digests plus the ancestor chain up to the root. Verifying
// recomputes the root from the claimed entry digest, so a proof binds
// the entry's content (and, through the leaf function, its key) to the
// root commitment.
type Proof struct {
	// Left and Right are the proven entry's child subtree digests.
	Left  Hash `json:"left"`
	Right Hash `json:"right"`
	// Steps are the ancestors from the entry's parent up to the root.
	Steps []ProofStep `json:"steps,omitempty"`
}

// Prove builds a membership proof for the entry under k.
func (m Map[V]) Prove(k string, leaf LeafFunc[V]) (Proof, bool) {
	var path []*node[V]
	n := m.root
	for n != nil && n.key != k {
		path = append(path, n)
		if k < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return Proof{}, false
	}
	pr := Proof{Left: digest(n.left, leaf), Right: digest(n.right, leaf)}
	for i := len(path) - 1; i >= 0; i-- {
		anc := path[i]
		left := k < anc.key
		other := anc.left
		if left {
			other = anc.right
		}
		pr.Steps = append(pr.Steps, ProofStep{
			Entry:    leaf(anc.key, anc.val),
			Other:    digest(other, leaf),
			PathLeft: left,
		})
	}
	return pr, true
}

// VerifyProof checks that an entry with the given leaf digest is
// committed to by root according to the proof.
func VerifyProof(root Hash, entry Hash, p Proof) bool {
	h := merkle.HashTreeNode(p.Left, entry, p.Right)
	for _, s := range p.Steps {
		if s.PathLeft {
			h = merkle.HashTreeNode(h, s.Entry, s.Other)
		} else {
			h = merkle.HashTreeNode(s.Other, s.Entry, h)
		}
	}
	return h == root
}

// ChildRef summarizes one child subtree of a Summary node. A Size of 0
// means the child is empty (Key and Digest are then meaningless).
type ChildRef struct {
	Key    string
	Digest Hash
	Size   int
}

// Summary describes one interior node for structural anti-entropy: the
// node's key plus digests, sizes, and root keys of both child subtrees.
// A peer walking another's tree top-down compares child digests against
// its own content and descends only into subtrees that differ.
type Summary struct {
	Key         string
	Left, Right ChildRef
}

// RootKey returns the key of the tree's root node, the starting point of
// a structural sync walk.
func (m Map[V]) RootKey() (string, bool) {
	if m.root == nil {
		return "", false
	}
	return m.root.key, true
}

// find returns the node holding k.
func (m Map[V]) find(k string) *node[V] {
	n := m.root
	for n != nil {
		switch {
		case k < n.key:
			n = n.left
		case k > n.key:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

func childRef[V any](n *node[V], leaf LeafFunc[V]) ChildRef {
	if n == nil {
		return ChildRef{}
	}
	return ChildRef{Key: n.key, Digest: digest(n, leaf), Size: n.size}
}

// SummaryAt returns the summary and value of the node holding k.
func (m Map[V]) SummaryAt(k string, leaf LeafFunc[V]) (Summary, V, bool) {
	n := m.find(k)
	if n == nil {
		var zero V
		return Summary{}, zero, false
	}
	return Summary{
		Key:   n.key,
		Left:  childRef(n.left, leaf),
		Right: childRef(n.right, leaf),
	}, n.val, true
}

// AscendSubtree calls fn for every entry of the subtree rooted at the
// node holding k, in ascending key order, until fn returns false. It
// reports whether k was found.
func (m Map[V]) AscendSubtree(k string, fn func(k string, v V) bool) bool {
	n := m.find(k)
	if n == nil {
		return false
	}
	n.ascend(fn)
	return true
}

// DigestIndex maps every subtree digest of one map to its subtree — the
// receiver side of structural anti-entropy uses it to recognize remote
// subtrees it already holds (equal digest ⇒ identical content, and by
// shape canonicity an identical subtree) and graft its local entries
// instead of transferring them.
type DigestIndex[V any] struct {
	byDig map[Hash]*node[V]
}

// NewDigestIndex builds the index, computing (and caching) any missing
// subtree digests — O(n) the first time, O(n) map inserts thereafter.
func NewDigestIndex[V any](m Map[V], leaf LeafFunc[V]) *DigestIndex[V] {
	ix := &DigestIndex[V]{byDig: make(map[Hash]*node[V], m.Len())}
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n == nil {
			return
		}
		ix.byDig[digest(n, leaf)] = n
		walk(n.left)
		walk(n.right)
	}
	walk(m.root)
	return ix
}

// Has reports whether some subtree of the indexed map digests to d.
func (ix *DigestIndex[V]) Has(d Hash) bool {
	_, ok := ix.byDig[d]
	return ok
}

// Ascend walks the subtree digesting to d in ascending key order. It
// reports whether the digest was found.
func (ix *DigestIndex[V]) Ascend(d Hash, fn func(k string, v V) bool) bool {
	n, ok := ix.byDig[d]
	if !ok {
		return false
	}
	n.ascend(fn)
	return true
}
