package pmap

// Map operations only the tests use: bulk construction from sorted
// slices and subtree sizes by digest.

// FromSorted is FromSortedSeeded with unkeyed priorities.
func FromSorted[V any](keys []string, vals []V) Map[V] {
	return FromSortedSeeded(nil, keys, vals)
}

// Size returns the entry count of the subtree digesting to d.
func (ix *DigestIndex[V]) Size(d Hash) (int, bool) {
	n, ok := ix.byDig[d]
	if !ok {
		return 0, false
	}
	return n.size, true
}
