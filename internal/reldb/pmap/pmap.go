// Package pmap implements an immutable, persistent ordered map from
// string keys to values, the structural-sharing storage substrate of
// reldb tables. Every mutating operation returns a *new* map that shares
// all untouched structure with its input, so
//
//   - a snapshot ("clone") is one pointer copy, O(1);
//   - Set and Delete copy only the O(log n) path from the root to the
//     touched key, never the whole map, and a batch of edits through
//     Edit copies each touched node once;
//   - two maps derived from a common ancestor by k edits share all but
//     O(k log n) nodes, which Diff exploits to compare them in
//     O(k log n) instead of O(n).
//
// The implementation is a *hash-ordered treap*: a binary search tree on
// the keys that is simultaneously a max-heap on per-key priorities
// derived by SHA-256 from the key bytes. Because the priority is a pure
// function of the key, the tree shape is a pure function of the key set
// — two maps holding the same entries have byte-for-byte identical
// structure no matter how they were built (incremental inserts, bulk
// FromSorted, deletes and re-inserts, different machines). That
// history-independence is what makes the cached subtree digests below a
// *canonical* Merkle commitment: equal content ⇔ equal root, and two
// replicas that agree on a subtree's digest hold identical copies of
// that subtree, which the anti-entropy sync layer exploits to ship only
// divergent subtrees. A weight-balanced tree (the previous
// implementation) cannot offer this: its shape depends on the mutation
// history, so independently built replicas would share no digests.
//
// The table layer needs *ordered* iteration (canonical key-sorted row
// order falls out of an in-order walk for free) and prefix range scans
// (the secondary index stores composite secondary-key‖primary-key
// entries and answers group lookups with a prefix walk); the treap keeps
// both. Balance is probabilistic rather than worst-case: expected depth
// is O(log n) because SHA-256-derived priorities are computationally
// indistinguishable from random. An adversary who can choose keys can in
// principle grind for priority patterns that skew the tree (a
// performance degradation, not a correctness or integrity loss — the
// digests commit to content regardless of shape); rows here are typed
// medical records keyed by short primary keys, where that grinding buys
// little.
//
// Every node lazily caches the SHA-256 Merkle digest of its subtree,
// domain-separated through internal/merkle (leaf entries and interior
// nodes hash under distinct prefixes, blocking second-preimage splicing).
// Mutations never invalidate anything: path copying replaces exactly the
// nodes whose digests change, and fresh nodes start uncached, so the
// first root digest after a k-edit delta recomputes only the O(k log n)
// fresh nodes. MerkleRoot, Prove/VerifyProof (membership proofs), and
// the SummaryAt/AscendSubtree/DigestIndex accessors used by structural
// anti-entropy all build on that cache.
//
// Bulk construction and batched edits go through a Transient
// (transient.go): a mutable-until-shared builder that mutates nodes it
// created in place and freezes into an ordinary Map. One that starts
// empty allocates nodes from slabs, so whole-table rebuilds pay one
// allocation per slab instead of per node; one that starts from a map
// (Map.Edit) copies each shared node it writes once, as its own heap
// object with an empty digest cache, so a k-key batch costs the union of
// its k paths and pins no older version of the tree.
// Priorities are optionally *keyed* (seed.go): a per-map HMAC-SHA-256
// secret replaces the bare SHA-256 derivation, making tree shapes
// unpredictable without the secret while replicas sharing it still
// converge to identical shapes.
//
// The zero Map is the empty map. Maps are safe for concurrent readers
// without synchronization (nodes are immutable apart from the idempotent
// digest cache, which racing readers store identical values into); a
// *variable* holding a map needs the caller's usual synchronization when
// rebound.
package pmap

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
)

// Hash is a SHA-256 digest (the merkle package's Hash).
type Hash = [32]byte

// LeafFunc computes the digest of one entry for the Merkle layer. Every
// caller computing digests over structurally shared maps must supply the
// same function for the same value type — the per-node cache stores the
// result of whichever function ran first.
type LeafFunc[V any] func(k string, v V) Hash

// Map is an immutable ordered map from string keys to values of type V.
// The zero value is the empty map with unkeyed priorities; keyed maps
// are built by NewTransient or FromSortedSeeded.
type Map[V any] struct {
	root *node[V]
	// seed keys the priority derivation (nil = plain SHA-256). Every
	// map derived from this one inherits it, so one lineage never mixes
	// priority schemes.
	seed *Seed
}

// Seed returns the map's priority seed (nil for unkeyed maps). Callers
// use it to build sibling structures that must share this map's shape
// (the anti-entropy assembler, table reseeding).
func (m Map[V]) Seed() *Seed { return m.seed }

// node is an immutable tree node. Nodes are never mutated after
// construction (all "mutation" builds new nodes along the root path)
// except for dig, the idempotent lazily cached subtree digest — and
// except while owned by a live Transient, which may mutate nodes it
// created in place until Freeze publishes them (see transient.go).
type node[V any] struct {
	key   string
	val   V
	pri   uint64 // heap priority: first 8 bytes of (H)MAC-SHA-256(key)
	size  int    // nodes in this subtree, including this one
	left  *node[V]
	right *node[V]
	// edit is the owner token of the Transient that created this node,
	// nil once the node is shared (created by a persistent op, or its
	// transient froze). Only the owning transient reads it; persistent
	// operations never mutate nodes regardless.
	edit *transientTok
	// dig caches the Merkle digest of this subtree. Atomic because
	// concurrent readers of a shared snapshot may race the lazy
	// computation; the digest is a pure function of the subtree, so
	// racing stores write the same value.
	dig atomic.Pointer[Hash]
}

// prio derives a node's heap priority from its key. SHA-256 keeps the
// tree shape unpredictable without a secret and consistent across
// machines and process restarts — both replicas of a shared table build
// byte-identical trees.
func prio(k string) uint64 {
	d := sha256.Sum256([]byte(k))
	return binary.BigEndian.Uint64(d[:8])
}

// higher reports whether entry (p1,k1) outranks (p2,k2) in heap order.
// The key tie-break makes the order strict and total, so the treap shape
// is unique even if two distinct keys collide on priority.
func higher(p1 uint64, k1 string, p2 uint64, k2 string) bool {
	if p1 != p2 {
		return p1 > p2
	}
	return k1 > k2
}

func size[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.size
}

func mk[V any](l *node[V], k string, p uint64, v V, r *node[V]) *node[V] {
	return &node[V]{key: k, val: v, pri: p, size: size(l) + size(r) + 1, left: l, right: r}
}

// Len returns the number of entries.
func (m Map[V]) Len() int { return size(m.root) }

// SameRoot reports whether m and o share their root node (or are both
// empty): the same version of one lineage, not merely equal contents.
func (m Map[V]) SameRoot(o Map[V]) bool { return m.root == o.root }

// Get returns the value stored under k.
func (m Map[V]) Get(k string) (V, bool) {
	n := m.root
	for n != nil {
		switch {
		case k < n.key:
			n = n.left
		case k > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// CompareBytesKey compares a byte-slice key with a string key bytewise
// without converting (and so without allocating). Exported for callers
// that probe string-keyed structures with reused byte buffers (the
// table builder's Peek).
func CompareBytesKey(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// GetBytes is Get for a key held as a byte slice; it never allocates.
// Hot paths (index probes with reused key buffers) use it.
func (m Map[V]) GetBytes(k []byte) (V, bool) {
	n := m.root
	for n != nil {
		switch CompareBytesKey(k, n.key) {
		case -1:
			n = n.left
		case 1:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Set returns a map with k bound to v (replacing any existing binding)
// plus whether a binding existed. The receiver is unchanged. It is the
// transient set on a transient that owns no node, so every node on the
// path is copied: one descent finds k, a replacement keeps the node's
// priority (no hashing), and only an insert derives k's priority.
func (m Map[V]) Set(k string, v V) (Map[V], bool) {
	t := Transient[V]{seed: m.seed, root: m.root, settled: true}
	_, existed := t.set(k, v, true)
	return Map[V]{root: t.root, seed: m.seed}, existed
}

// Delete returns a map without k, plus whether k was present. When k is
// absent the receiver is returned unchanged (no copying).
func (m Map[V]) Delete(k string) (Map[V], bool) {
	t := Transient[V]{root: m.root, settled: true}
	if _, existed := t.delete(k); !existed {
		return m, false
	}
	return Map[V]{root: t.root, seed: m.seed}, true
}

// Ascend calls fn for every entry in ascending key order until fn
// returns false.
func (m Map[V]) Ascend(fn func(k string, v V) bool) {
	m.root.ascend(fn)
}

func (n *node[V]) ascend(fn func(string, V) bool) bool {
	if n == nil {
		return true
	}
	return n.left.ascend(fn) && fn(n.key, n.val) && n.right.ascend(fn)
}

// AscendPrefix calls fn for every entry whose key starts with prefix, in
// ascending key order, until fn returns false.
func (m Map[V]) AscendPrefix(prefix string, fn func(k string, v V) bool) {
	m.root.ascendFrom(prefix, func(k string, v V) bool {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return false // past the prefix range
		}
		return fn(k, v)
	})
}

// ascendFrom visits entries with key >= lo in ascending order.
func (n *node[V]) ascendFrom(lo string, fn func(string, V) bool) bool {
	if n == nil {
		return true
	}
	if n.key < lo {
		return n.right.ascendFrom(lo, fn)
	}
	return n.left.ascendFrom(lo, fn) && fn(n.key, n.val) && n.right.ascend(fn)
}

// AppendMapped appends f(v) for every value in ascending key order. With
// a preallocated dst and a top-level (non-closure) f it performs no
// allocations beyond dst's growth — the table layer's zero-copy row
// accessors are built on it.
func AppendMapped[V, U any](m Map[V], dst []U, f func(V) U) []U {
	return appendMapped(m.root, dst, f)
}

func appendMapped[V, U any](n *node[V], dst []U, f func(V) U) []U {
	if n == nil {
		return dst
	}
	dst = appendMapped(n.left, dst, f)
	dst = append(dst, f(n.val))
	return appendMapped(n.right, dst, f)
}

// FromSortedSeeded builds a map from keys and parallel vals in one O(n)
// pass, with priorities keyed by seed (nil = unkeyed). keys MUST be in
// strictly ascending order — the precondition is the caller's to
// guarantee (table builders append rows in canonical scan order) and is
// not rechecked here. The result is the canonical treap of the key set —
// identical in shape to the same entries inserted one by one under the
// same seed — built on a Transient (right-spine Cartesian construction
// over slab-allocated nodes).
func FromSortedSeeded[V any](seed *Seed, keys []string, vals []V) Map[V] {
	t := NewTransient[V](seed)
	for i, k := range keys {
		t.appendAscending(k, vals[i])
	}
	return t.Freeze()
}

// split partitions n around k into the entries below k, the value at k
// (if present), and the entries above k. Subtrees entirely on one side
// are reused by pointer, which is what lets Diff keep pruning
// pointer-equal structure after a split. Reassembly with mk preserves
// heap order (children of the reused nodes only lose entries), so both
// halves are themselves canonical treaps of their key sets.
func split[V any](n *node[V], k string) (l *node[V], v V, found bool, r *node[V]) {
	if n == nil {
		var zero V
		return nil, zero, false, nil
	}
	switch {
	case k < n.key:
		ll, v, found, lr := split(n.left, k)
		return ll, v, found, mk(lr, n.key, n.pri, n.val, n.right)
	case k > n.key:
		rl, v, found, rr := split(n.right, k)
		return mk(n.left, n.key, n.pri, n.val, rl), v, found, rr
	default:
		return n.left, n.val, true, n.right
	}
}

// Diff compares a and b and reports their differences in ascending key
// order: onA for keys only in a, onB for keys only in b, and onBoth for
// keys present in both whose values differ under same. Any callback
// returning false aborts the walk (equality checks stop at the first
// difference). Pointer-equal subtrees are skipped wholesale, so diffing
// a map against a descendant produced by k edits costs O(k log n)
// rather than O(n) — the property that makes UpdateView's
// view diff proportional to the edit, not the table.
func Diff[V any](a, b Map[V], same func(x, y V) bool, onA, onB func(k string, v V) bool, onBoth func(k string, x, y V) bool) {
	diffNodes(a.root, b.root, same, onA, onB, onBoth)
}

func diffNodes[V any](a, b *node[V], same func(x, y V) bool, onA, onB func(string, V) bool, onBoth func(string, V, V) bool) bool {
	if a == b {
		return true
	}
	if a == nil {
		return b.ascend(onB)
	}
	if b == nil {
		return a.ascend(onA)
	}
	bl, bv, found, br := split(b, a.key)
	if !diffNodes(a.left, bl, same, onA, onB, onBoth) {
		return false
	}
	if found {
		if !same(a.val, bv) && !onBoth(a.key, a.val, bv) {
			return false
		}
	} else if !onA(a.key, a.val) {
		return false
	}
	return diffNodes(a.right, br, same, onA, onB, onBoth)
}
