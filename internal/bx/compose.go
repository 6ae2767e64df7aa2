package bx

import (
	"sync/atomic"

	"medshare/internal/reldb"
)

// ComposeLens chains two lenses: the view of Outer is computed from the
// view of Inner. Composition of well-behaved lenses is well behaved:
//
//	get(s)    = Outer.get(Inner.get(s))
//	put(s, v) = Inner.put(s, Outer.put(Inner.get(s), v))
//
// This is how a doctor shares a predicate-restricted projection (e.g.
// "dosage columns, but only rows for patient 188"): Compose(Select(...),
// Project(...)).
type ComposeLens struct {
	// Inner transforms the source into the intermediate view.
	Inner Lens
	// Outer transforms the intermediate view into the final view.
	Outer Lens

	// memo caches the two most recent (source hash → intermediate view)
	// pairs so a delta cascade does not rematerialize Inner.Get(src) —
	// the last O(n) step of an otherwise O(changed rows) PutDelta chain.
	// Two entries cover both access patterns: the cascade (the updated
	// source of one put is the source of the next) and repeated puts over
	// an unchanged source (retries, several counterparties of one share).
	// Keyed by the source's content hash (insertion-order and name
	// independent), so it hits across the O(1) snapshot clones the
	// sharing layer takes, and a stale entry can never be confused for
	// the current source. Cached tables are treated as immutable: lens
	// methods never mutate their arguments. Purely an optimization —
	// semantics are unchanged because memo validity follows from the
	// lens laws (PutGet: Inner.Get(put(src, mid')) = mid').
	memo [2]atomic.Pointer[composeMemo]
}

// composeMemo is one (source hash, intermediate view) pair.
type composeMemo struct {
	srcHash [32]byte
	mid     *reldb.Table
}

// cachedMid returns the memoized intermediate view when an entry matches
// src's already-built hash state. It never forces a hash build.
func (l *ComposeLens) cachedMid(src *reldb.Table) (*reldb.Table, bool) {
	h, ok := src.CachedHash()
	if !ok {
		return nil, false
	}
	for i := range l.memo {
		if m := l.memo[i].Load(); m != nil && m.srcHash == h {
			return m.mid, true
		}
	}
	return nil, false
}

// remember stores the (src, mid) pair when src's hash state is built —
// storing for a cold table would force an O(n) hash the caller never
// asked for. The previous newest entry is demoted to the second slot.
func (l *ComposeLens) remember(src, mid *reldb.Table) {
	h, ok := src.CachedHash()
	if !ok {
		return
	}
	l.rememberHash(h, mid)
}

func (l *ComposeLens) rememberHash(h [32]byte, mid *reldb.Table) {
	if cur := l.memo[0].Load(); cur != nil && cur.srcHash != h {
		l.memo[1].Store(cur)
	}
	l.memo[0].Store(&composeMemo{srcHash: h, mid: mid})
}

// Compose chains lenses left-to-right: the first lens applies to the
// source, the last produces the final view.
func Compose(first Lens, rest ...Lens) Lens {
	out := first
	for _, l := range rest {
		out = &ComposeLens{Inner: out, Outer: l}
	}
	return out
}

// Get implements Lens.
func (l *ComposeLens) Get(src *reldb.Table) (*reldb.Table, error) {
	if mid, ok := l.cachedMid(src); ok {
		return l.Outer.Get(mid)
	}
	mid, err := l.Inner.Get(src)
	if err != nil {
		return nil, err
	}
	l.remember(src, mid)
	return l.Outer.Get(mid)
}

// Spec implements Lens.
func (l *ComposeLens) Spec() Spec {
	return Spec{Op: OpCompose, Inner: []Spec{l.Inner.Spec(), l.Outer.Spec()}}
}
