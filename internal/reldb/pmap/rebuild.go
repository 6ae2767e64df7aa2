package pmap

// Rebuild derives a new map from m by an in-order per-entry transform,
// exploiting one fact the generic builders cannot: the output's key set
// is the input's (minus deletions). The result therefore reuses m's
// keys, priorities, and tree shape wholesale — no key re-encoding, no
// priority hashing, no comparisons — and any subtree whose entries all
// come back unchanged is shared by pointer, cached digests included.
// Transformed nodes come from slab arenas like the Transient's. Costs:
// O(n) for the walk and the f calls, but allocation only O(changed) +
// O(deleted · log n) (each deletion joins its children and path-copies
// its ancestors).
//
// f is called once per entry in ascending key order and returns the
// replacement value, keep=false to delete the entry, and changed=false
// to reuse the stored value (out is then ignored). A non-nil error
// aborts the walk.
//
// Shape note: kept nodes preserve their key and priority, and deletions
// splice subtrees with the same priority-directed join the persistent
// Delete uses, so the result is exactly the canonical treap of the
// surviving key set under m's seed — Rebuild is indistinguishable from
// building the same contents any other way.
func Rebuild[V any](m Map[V], f func(k string, v V) (out V, keep, changed bool, err error)) (Map[V], error) {
	var slab []node[V]
	slabCap := 0
	alloc := func(src *node[V], v V, l, r *node[V]) *node[V] {
		if len(slab) == 0 {
			if slabCap < slabMin {
				slabCap = slabMin
			}
			slab = make([]node[V], slabCap)
			if slabCap < slabMax {
				slabCap *= 2
			}
		}
		n := &slab[0]
		slab = slab[1:]
		n.key, n.val, n.pri, n.left, n.right = src.key, v, src.pri, l, r
		n.size = size(l) + size(r) + 1
		return n
	}
	// cp owns no node, so its join copies what it re-points.
	var cp Transient[V]
	// walk returns the rebuilt subtree plus whether it is the input
	// subtree unchanged (shared by pointer).
	var walk func(n *node[V]) (*node[V], bool, error)
	walk = func(n *node[V]) (*node[V], bool, error) {
		if n == nil {
			return nil, true, nil
		}
		l, lsame, err := walk(n.left)
		if err != nil {
			return nil, false, err
		}
		v, keep, changed, err := f(n.key, n.val)
		if err != nil {
			return nil, false, err
		}
		r, rsame, err := walk(n.right)
		if err != nil {
			return nil, false, err
		}
		if !keep {
			return cp.join(l, r), false, nil
		}
		if lsame && rsame && !changed {
			return n, true, nil
		}
		if !changed {
			v = n.val
		}
		return alloc(n, v, l, r), false, nil
	}
	root, _, err := walk(m.root)
	if err != nil {
		return Map[V]{}, err
	}
	return Map[V]{root: root, seed: m.seed}, nil
}
