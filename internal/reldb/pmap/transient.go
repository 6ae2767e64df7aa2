package pmap

// Transient mode ("mutable until shared"): building a fresh map — or
// applying a burst of edits that nobody else can observe yet — through
// the persistent operations pays one heap allocation per touched node.
// A Transient removes that cost without giving up any persistence
// guarantee:
//
//   - nodes the transient creates are tagged with its owner token and
//     allocated from slabs (one heap allocation per slabSize nodes);
//   - an insert that reaches an *owned* node updates it in place; a node
//     without the token would be path-copied exactly as the persistent
//     operations do, so shared structure is never touched;
//   - Freeze retires the owner token and returns an ordinary persistent
//     Map. Nothing is walked or copied at freeze: fresh nodes simply
//     stop being mutable, and their Merkle digests — untouched during
//     building — are computed lazily by the first MerkleRoot exactly
//     like any other uncached node.
//
// Ascending bulk builds get a further fast path: while keys arrive in
// strictly increasing order the transient grows the tree with the
// right-spine Cartesian construction (O(1) amortized per append, no
// comparisons against interior nodes), deferring subtree sizes until
// the run ends. The first out-of-order operation settles the sizes and
// degrades transparently to ordinary O(log n) transient inserts — the
// same contract reldb's TableBuilder has always offered, now one layer
// lower so every bulk rebuild (table operators, lens puts, the
// anti-entropy assembler) shares it.
//
// A Transient is single-owner and not safe for concurrent use; the Maps
// it freezes are as shareable as any other.

// transientTok is an owner token: one allocation whose identity marks
// the nodes a live transient may mutate.
type transientTok struct{ _ byte }

// slabMin and slabMax bound the node-arena chunk sizes: chunks grow
// geometrically from slabMin to slabMax, so a tiny frozen map pins at
// most a handful of spare nodes while bulk builds still amortize the
// per-chunk allocation 128 ways.
const (
	slabMin = 8
	slabMax = 128
)

// Transient is a mutable builder for a Map. Obtain one with
// NewTransient, insert into it, then Freeze it exactly once.
type Transient[V any] struct {
	tok *transientTok
	// ph derives priorities (seeded or not) with a reusable scratch
	// buffer — no per-key allocation on the bulk paths.
	ph   seedHasher
	root *node[V]
	// count tracks Len incrementally (subtree sizes may be deferred).
	count int
	// slab is the current node arena chunk; slabCap is the next chunk's
	// size (geometric growth, slabMin → slabMax).
	slab    []node[V]
	slabCap int
	// Ascending-run state: while spine is live (settled == false) the
	// tree's subtree sizes are stale and appends go through the
	// right-spine construction. spine holds the right spine, root first.
	spine   []*node[V]
	last    string
	hasLast bool
	settled bool
}

// NewTransient returns an empty transient with the given priority seed
// (nil = unkeyed).
func NewTransient[V any](seed *Seed) *Transient[V] {
	return &Transient[V]{tok: &transientTok{}, ph: seed.hasher()}
}

// alloc hands out one owned node from the slab.
func (t *Transient[V]) alloc(l *node[V], k string, p uint64, v V, r *node[V]) *node[V] {
	if len(t.slab) == 0 {
		if t.slabCap < slabMin {
			t.slabCap = slabMin
		}
		t.slab = make([]node[V], t.slabCap)
		if t.slabCap < slabMax {
			t.slabCap *= 2
		}
	}
	n := &t.slab[0]
	t.slab = t.slab[1:]
	n.key, n.val, n.pri, n.left, n.right, n.edit = k, v, p, l, r, t.tok
	n.size = size(l) + size(r) + 1
	return n
}

func (t *Transient[V]) live() {
	if t.tok == nil {
		panic("pmap: use of frozen Transient")
	}
}

// Len returns the number of entries currently in the transient.
func (t *Transient[V]) Len() int {
	t.live()
	return t.count
}

// GetBytes is Get for a byte-slice key; it never allocates.
func (t *Transient[V]) GetBytes(k []byte) (V, bool) {
	t.live()
	return Map[V]{root: t.root}.GetBytes(k)
}

// appendAscending grows the tree by one entry whose key is strictly
// greater than every key already present — the caller's precondition
// (FromSorted's contract). O(1) amortized: the right-spine construction.
func (t *Transient[V]) appendAscending(k string, v V) {
	n := t.alloc(nil, k, t.ph.prio(k), v, nil)
	// Pop spine entries the new (rightmost) node outranks; the last
	// popped becomes its left subtree.
	var last *node[V]
	for len(t.spine) > 0 {
		top := t.spine[len(t.spine)-1]
		if !higher(n.pri, n.key, top.pri, top.key) {
			break
		}
		last = top
		t.spine = t.spine[:len(t.spine)-1]
	}
	n.left = last
	if len(t.spine) == 0 {
		t.root = n
	} else {
		t.spine[len(t.spine)-1].right = n
	}
	t.spine = append(t.spine, n)
	t.count++
	t.last, t.hasLast = k, true
}

// settle ends the ascending run: subtree sizes of the spine-built
// region (all owned nodes) are filled in and subsequent operations take
// the ordinary transient paths.
func (t *Transient[V]) settle() {
	if t.settled {
		return
	}
	t.fixSizes(t.root)
	t.spine = nil
	t.settled = true
}

// fixSizes recomputes subtree sizes across the owned region. Nodes not
// owned by this transient were never mutated, so their stored sizes are
// already correct and the walk stops there.
func (t *Transient[V]) fixSizes(n *node[V]) int {
	if n == nil {
		return 0
	}
	if n.edit != t.tok {
		return n.size
	}
	n.size = t.fixSizes(n.left) + t.fixSizes(n.right) + 1
	return n.size
}

// Insert adds k→v and reports whether it was added; an existing binding
// is left untouched and false is returned (the builder's duplicate-key
// probe). Strictly ascending inserts take the O(1) spine path.
func (t *Transient[V]) Insert(k string, v V) bool {
	t.live()
	if !t.settled {
		if !t.hasLast || k > t.last {
			t.appendAscending(k, v)
			return true
		}
		if k == t.last {
			return false
		}
		t.settle()
	}
	root, added := t.insert(t.root, k, t.ph.prio(k), v)
	if !added {
		return false
	}
	t.root = root
	t.count++
	return true
}

// insert is set without replacement: a duplicate key returns the
// subtree untouched (one descent probes and inserts).
func (t *Transient[V]) insert(n *node[V], k string, p uint64, v V) (*node[V], bool) {
	if n == nil {
		return t.alloc(nil, k, p, v, nil), true
	}
	if k == n.key {
		return n, false
	}
	if higher(p, k, n.pri, n.key) {
		// The new entry outranks this subtree's root, so k cannot occur
		// below n (the persistent set's argument).
		l, r := t.split(n, k)
		return t.alloc(l, k, p, v, r), true
	}
	if k < n.key {
		l, added := t.insert(n.left, k, p, v)
		if !added {
			return n, false
		}
		return t.rebuild(n, l, n.right), true
	}
	r, added := t.insert(n.right, k, p, v)
	if !added {
		return n, false
	}
	return t.rebuild(n, n.left, r), true
}

// rebuild re-points n's children after a child-side mutation, in place
// when n is owned and by copy otherwise.
func (t *Transient[V]) rebuild(n, l, r *node[V]) *node[V] {
	if n.edit == t.tok {
		n.left, n.right = l, r
		n.size = size(l) + size(r) + 1
		return n
	}
	return t.alloc(l, n.key, n.pri, n.val, r)
}

// split is the transient counterpart of the shared split: the same
// partitioning recursion, minus the value probe the transient call sites
// never use, with path nodes re-pointed in place when owned and drawn
// from the slab arena otherwise — no per-node heap allocation through mk.
// In-place reuse is sound for the same reason rebuild's is: an owned
// node is reachable only through this transient's tree, and split moves
// it wholesale into exactly one of the two halves.
func (t *Transient[V]) split(n *node[V], k string) (l, r *node[V]) {
	if n == nil {
		return nil, nil
	}
	switch {
	case k < n.key:
		ll, lr := t.split(n.left, k)
		return ll, t.rebuild(n, lr, n.right)
	case k > n.key:
		rl, rr := t.split(n.right, k)
		return t.rebuild(n, n.left, rl), rr
	default:
		return n.left, n.right
	}
}

// Freeze finalizes the transient into a persistent Map and retires the
// owner token: the nodes become immutable, exactly like nodes built by
// the persistent operations, and their Merkle digests are computed
// lazily by the first digest walk. The transient must not be used
// afterwards (operations panic).
func (t *Transient[V]) Freeze() Map[V] {
	t.live()
	t.settle()
	m := Map[V]{root: t.root, seed: t.ph.seed}
	t.tok = nil
	t.root = nil
	t.slab = nil
	return m
}
