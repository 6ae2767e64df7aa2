package pmap

// Transient mode ("mutable until shared"): building a fresh map — or
// applying a burst of edits that nobody else can observe yet — through
// the persistent operations pays a whole root path of fresh nodes per
// operation. A Transient removes that cost without giving up any
// persistence guarantee:
//
//   - nodes the transient creates are tagged with its owner token;
//   - a write that reaches an *owned* node changes it in place; a node
//     without the token is copied once, the copy is owned, and every
//     later write through it changes the copy — shared structure is
//     never touched;
//   - Freeze retires the owner token and returns an ordinary persistent
//     Map. Nothing is walked or copied at freeze: fresh nodes simply
//     stop being mutable, and their Merkle digests — untouched during
//     building — are computed lazily by the first MerkleRoot exactly
//     like any other uncached node.
//
// A transient starts either empty (NewTransient, a bulk build) or from a
// map (Map.Edit, an edit mode entered in O(1)). An edit of k keys
// copies the union of their root paths, each node once, where k
// persistent Sets would copy the top of the tree k times; a replaced key
// keeps its node's priority, so only an inserted key is hashed. Every
// operation is one descent that records the search path: a hit changes
// the node, a miss splits the recorded path below the point where heap
// order puts the new key, and the ancestors are re-pointed bottom-up.
// The persistent Set and Delete are the same code on a transient
// without a token, which owns nothing and so copies every node it
// re-points.
//
// Two rules keep an edit honest:
//
//   - A copy of a shared node, and a node inserted during an edit, is
//     its own heap allocation. The slab arena (one heap allocation per
//     chunk of nodes) serves only transients that start empty: in an
//     edit, a stale node left in a live slab chunk would keep its old
//     children reachable, pinning every older version of the tree
//     (TestEditRetainsNoHistory).
//   - A copy is built field by field and starts with an empty digest
//     cache. Copying the node struct whole would carry over a digest of
//     the old subtree and silently corrupt MerkleRoot (FuzzEditOps
//     caches the base's digests before editing, to catch exactly that).
//
// Ascending bulk builds get a further fast path: while keys arrive in
// strictly increasing order the transient grows the tree with the
// right-spine Cartesian construction (O(1) amortized per append, no
// comparisons against interior nodes), deferring subtree sizes until
// the run ends. The first out-of-order operation settles the sizes and
// degrades transparently to ordinary O(log n) transient inserts, so
// every bulk rebuild (table operators, lens puts, the anti-entropy
// assembler) shares it.
//
// A Transient is single-owner and not safe for concurrent use; the Maps
// it freezes are as shareable as any other.

// transientTok is an owner token whose identity marks the nodes a live
// transient may mutate.
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
// NewTransient (empty) or Map.Edit (starting from a map), change it,
// then Freeze it exactly once.
type Transient[V any] struct {
	// tok points at own while the transient is live and is nil once it
	// froze (or for the persistent operations' token-less transients).
	// Holding the token inline spares an allocation per edit; a frozen
	// node's edit pointer keeps this struct alive, so no later transient
	// can be handed the same token.
	tok *transientTok
	own transientTok
	// settled is false while an ascending run is live (see bulkBuild).
	settled bool
	// seed keys the priorities (nil = unkeyed).
	seed *Seed
	root *node[V]
	// count tracks Len incrementally (subtree sizes may be deferred).
	count int
	// bulk is set for a transient that started empty (NewTransient); an
	// edit (Map.Edit) and the persistent operations have none.
	bulk *bulkBuild[V]
}

// bulkBuild is the state only a bulk build keeps: its node arena, and
// its ascending run.
type bulkBuild[V any] struct {
	// slab is the current arena chunk; slabCap is the next chunk's size
	// (geometric growth, slabMin → slabMax).
	slab    []node[V]
	slabCap int
	// Ascending-run state: while the run is live (settled == false) the
	// tree's subtree sizes are stale and appends go through the
	// right-spine construction. spine holds the right spine, root first.
	spine   []*node[V]
	last    string
	hasLast bool
}

// NewTransient returns an empty transient with the given priority seed
// (nil = unkeyed).
func NewTransient[V any](seed *Seed) *Transient[V] {
	t := &Transient[V]{seed: seed, bulk: &bulkBuild[V]{}}
	t.tok = &t.own
	return t
}

// Edit returns a transient whose starting state is m, in O(1). m itself
// is never written: a write that reaches one of m's nodes copies it once
// and changes the copy in place from then on, so a batch of k edits
// copies each touched node once — the union of their paths — instead of
// a whole root path per edit. Freeze returns the edited map.
func (m Map[V]) Edit() *Transient[V] {
	t := &Transient[V]{seed: m.seed, root: m.root, count: m.Len(), settled: true}
	t.tok = &t.own
	return t
}

// alloc makes one owned node: from the slab arena when the transient
// started empty, as its own heap object otherwise (see Map.Edit).
func (t *Transient[V]) alloc(l *node[V], k string, p uint64, v V, r *node[V]) *node[V] {
	b := t.bulk
	if b == nil {
		return &node[V]{key: k, val: v, pri: p, size: size(l) + size(r) + 1, left: l, right: r, edit: t.tok}
	}
	if len(b.slab) == 0 {
		if b.slabCap < slabMin {
			b.slabCap = slabMin
		}
		b.slab = make([]node[V], b.slabCap)
		if b.slabCap < slabMax {
			b.slabCap *= 2
		}
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
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
	b := t.bulk
	n := t.alloc(nil, k, t.seed.prio(k), v, nil)
	// Pop spine entries the new (rightmost) node outranks; the last
	// popped becomes its left subtree.
	var last *node[V]
	for len(b.spine) > 0 {
		top := b.spine[len(b.spine)-1]
		if !higher(n.pri, n.key, top.pri, top.key) {
			break
		}
		last = top
		b.spine = b.spine[:len(b.spine)-1]
	}
	n.left = last
	if len(b.spine) == 0 {
		t.root = n
	} else {
		b.spine[len(b.spine)-1].right = n
	}
	b.spine = append(b.spine, n)
	t.count++
	b.last, b.hasLast = k, true
}

// settle ends the ascending run: subtree sizes of the spine-built
// region (all owned nodes) are filled in and subsequent operations take
// the ordinary transient paths.
func (t *Transient[V]) settle() {
	if t.settled {
		return
	}
	t.fixSizes(t.root)
	t.bulk.spine = nil
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
		b := t.bulk
		if !b.hasLast || k > b.last {
			t.appendAscending(k, v)
			return true
		}
		if k == b.last {
			return false
		}
		t.settle()
	}
	_, found := t.set(k, v, false)
	return !found
}

// Set binds k to v, replacing any existing binding, and returns the
// value it replaced and whether there was one. A replaced key keeps its
// node and so its priority: only an inserted key derives one.
func (t *Transient[V]) Set(k string, v V) (old V, replaced bool) {
	t.live()
	t.settle()
	return t.set(k, v, true)
}

// Delete removes k and returns the value it was bound to and whether it
// was present.
func (t *Transient[V]) Delete(k string) (old V, deleted bool) {
	t.live()
	t.settle()
	return t.delete(k)
}

// Get returns the value bound to k.
func (t *Transient[V]) Get(k string) (V, bool) {
	t.live()
	return Map[V]{root: t.root}.Get(k)
}

// AscendPrefix is Map.AscendPrefix over the transient's current entries.
func (t *Transient[V]) AscendPrefix(prefix string, fn func(k string, v V) bool) {
	t.live()
	Map[V]{root: t.root}.AscendPrefix(prefix, fn)
}

// maxPath is the search-path depth kept on the stack; deeper paths (a
// treap of millions of keys, or an unlucky one) spill to the heap.
const maxPath = 64

// set binds k to v in one descent that records the search path. A hit
// replaces the value in the node (in place when owned, else in a copy),
// keeping its priority; replace=false leaves it untouched instead. A
// miss derives k's priority, finds the first path node k outranks —
// where heap order puts k — and splits the path below it around k, so no
// node is visited twice. Either way the ancestors are re-pointed last.
// It returns the old value and whether k was present.
func (t *Transient[V]) set(k string, v V, replace bool) (old V, found bool) {
	var buf [maxPath]*node[V]
	path := buf[:0]
	n := t.root
	for n != nil && n.key != k {
		path = append(path, n)
		if k < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n != nil {
		if !replace {
			return n.val, true
		}
		old = n.val
		if t.owns(n) {
			n.val = v
			return old, true // same node, same size: no ancestor changes
		}
		t.relink(path, k, t.alloc(n.left, n.key, n.pri, v, n.right), false)
		return old, true
	}
	p := t.seed.prio(k)
	at := 0
	for at < len(path) && !higher(p, k, path[at].pri, path[at].key) {
		at++
	}
	// Split path[at:] around k bottom-up: each node keeps the side of k
	// it lies on, and its child toward k becomes the split's remainder.
	var l, r *node[V]
	for j := len(path) - 1; j >= at; j-- {
		m := path[j]
		if k < m.key {
			r = t.rebuild(m, r, m.right)
		} else {
			l = t.rebuild(m, m.left, l)
		}
	}
	t.relink(path[:at], k, t.alloc(l, k, p, v, r), true)
	t.count++
	return old, false
}

// delete removes k in one descent: its node's subtrees are joined and
// the ancestors re-pointed.
func (t *Transient[V]) delete(k string) (old V, found bool) {
	var buf [maxPath]*node[V]
	path := buf[:0]
	n := t.root
	for n != nil && n.key != k {
		path = append(path, n)
		if k < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return old, false
	}
	t.relink(path, k, t.join(n.left, n.right), true)
	t.count--
	return n.val, true
}

// relink hangs sub where the search for k left path (root first) and
// re-points every ancestor bottom-up, copying the shared ones.
// resized says the subtree's size changed; without that the walk stops
// at the first owned ancestor, since every node above it is owned too
// and keeps both its children and its size.
func (t *Transient[V]) relink(path []*node[V], k string, sub *node[V], resized bool) {
	for j := len(path) - 1; j >= 0; j-- {
		m := path[j]
		owned := t.owns(m)
		if k < m.key {
			sub = t.rebuild(m, sub, m.right)
		} else {
			sub = t.rebuild(m, m.left, sub)
		}
		if owned && !resized {
			return
		}
	}
	t.root = sub
}

// join merges two sibling subtrees (all keys of l < all keys of r) by
// descending the lower-ranked side, preserving heap order — the treap's
// replacement for rebalancing rotations.
func (t *Transient[V]) join(l, r *node[V]) *node[V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case higher(l.pri, l.key, r.pri, r.key):
		return t.rebuild(l, l.left, t.join(l.right, r))
	default:
		return t.rebuild(r, t.join(l, r.left), r.right)
	}
}

// owns reports whether n is this live transient's to change in place.
// A transient without a token (the persistent operations') owns nothing.
func (t *Transient[V]) owns(n *node[V]) bool {
	return t.tok != nil && n.edit == t.tok
}

// rebuild re-points n's children after a child-side mutation, in place
// when n is owned and by copy otherwise. A copy is built field by field:
// it must not inherit n's cached digest, which describes n's old subtree.
func (t *Transient[V]) rebuild(n, l, r *node[V]) *node[V] {
	if t.owns(n) {
		n.left, n.right = l, r
		n.size = size(l) + size(r) + 1
		return n
	}
	return t.alloc(l, n.key, n.pri, n.val, r)
}

// Freeze finalizes the transient into a persistent Map and retires the
// owner token: the nodes become immutable, exactly like nodes built by
// the persistent operations, and their Merkle digests are computed
// lazily by the first digest walk. The transient must not be used
// afterwards (operations panic).
func (t *Transient[V]) Freeze() Map[V] {
	t.live()
	t.settle()
	m := Map[V]{root: t.root, seed: t.seed}
	t.tok = nil
	t.root = nil
	t.bulk = nil
	return m
}
