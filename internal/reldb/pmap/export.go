package pmap

import (
	"errors"
	"fmt"
)

// Content-addressed export/import: the treap is already a Merkle DAG —
// every subtree carries a canonical digest, and the digest of a node
// commits to its entry plus both child digests. That makes the map
// directly persistable as a set of (digest → node record) facts:
//
//   - ExportNodes walks the tree and emits one record per node,
//     pruning whole subtrees the consumer already holds (skip reports
//     digest membership), so persisting a k-edit descendant of an
//     already-persisted map emits only the O(k log n) fresh nodes;
//   - FromExported rebuilds the map from the root digest by fetching
//     records, recomputing priorities from the seed and sizes from the
//     children — nothing structural is trusted from the records, and
//     the digest caches are left empty so the caller's subsequent
//     MerkleRoot recomputes (and thereby verifies) the full tree
//     against the expected root.
//
// Because the treap shape is a pure function of the key set (and seed),
// the unique tree hashing to a given root is the canonical one, so a
// rebuilt map whose recomputed root matches is bit-identical to the
// exported original.

// ExportedNode is one node of the content-addressed DAG: the node's own
// subtree digest, its entry, and the digests of its children (the
// all-zero Hash denotes an empty child).
type ExportedNode[V any] struct {
	Digest Hash
	Key    string
	Val    V
	Left   Hash
	Right  Hash
}

// ExportNodes walks the map bottom-up (children before parents) and
// calls emit for every node whose subtree digest is not already known
// to the consumer. skip reports whether a subtree digest is already
// held; when it returns true the entire subtree is pruned — the
// structural-sharing argument that makes Diff cheap makes incremental
// persistence cheap. A nil skip exports everything. emit returning
// false aborts the walk; ExportNodes reports whether the walk ran to
// completion. Digests are computed (and cached) with leaf as needed.
func ExportNodes[V any](m Map[V], leaf LeafFunc[V], skip func(Hash) bool, emit func(ExportedNode[V]) bool) bool {
	var walk func(n *node[V]) bool
	walk = func(n *node[V]) bool {
		if n == nil {
			return true
		}
		d := digest(n, leaf)
		if skip != nil && skip(d) {
			return true
		}
		if !walk(n.left) || !walk(n.right) {
			return false
		}
		return emit(ExportedNode[V]{
			Digest: d,
			Key:    n.key,
			Val:    n.val,
			Left:   digest(n.left, leaf),
			Right:  digest(n.right, leaf),
		})
	}
	return walk(m.root)
}

// ErrMissingNode is returned by FromExported when fetch cannot supply a
// referenced digest — the persisted DAG is incomplete (e.g. a torn log
// lost interior records).
var ErrMissingNode = errors.New("pmap: exported node missing")

// ErrMalformedDAG is returned by FromExported when the fetched records
// do not describe a tree of the expected size (a cycle, a shared
// subtree counted twice, or a record set larger than declared).
var ErrMalformedDAG = errors.New("pmap: exported DAG malformed")

// FromExported rebuilds the map rooted at the given digest by fetching
// node records. The all-zero root digest yields the empty map. maxNodes
// bounds the total nodes materialized (the caller knows the expected
// entry count); exceeding it — which any cycle in a corrupt record set
// would — fails with ErrMalformedDAG rather than recursing forever.
//
// Structure is NOT trusted: priorities are rederived from seed, subtree
// sizes recomputed from children, and digest caches left empty. Callers
// MUST verify the rebuilt map by recomputing its MerkleRoot and
// comparing against the expected root; only then is the map known to be
// the canonical original.
func FromExported[V any](seed *Seed, root Hash, maxNodes int, fetch func(Hash) (ExportedNode[V], bool)) (Map[V], error) {
	visited := 0
	var build func(d Hash) (*node[V], error)
	build = func(d Hash) (*node[V], error) {
		if d == (Hash{}) {
			return nil, nil
		}
		if visited++; visited > maxNodes {
			return nil, fmt.Errorf("%w: more than %d nodes reachable from root", ErrMalformedDAG, maxNodes)
		}
		rec, ok := fetch(d)
		if !ok {
			return nil, fmt.Errorf("%w: digest %x", ErrMissingNode, d[:8])
		}
		l, err := build(rec.Left)
		if err != nil {
			return nil, err
		}
		r, err := build(rec.Right)
		if err != nil {
			return nil, err
		}
		return mk(l, rec.Key, seed.prio(rec.Key), rec.Val, r), nil
	}
	n, err := build(root)
	if err != nil {
		return Map[V]{}, err
	}
	return Map[V]{root: n, seed: seed}, nil
}
