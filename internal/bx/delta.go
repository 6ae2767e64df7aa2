package bx

import (
	"fmt"

	"medshare/internal/reldb"
)

// The put of every lens is its delta put: PutDelta edits the source
// (reldb.Table.Edit) and touches only the changed rows, so a one-row view
// edit costs O(changed rows), not O(table), and a k-row edit copies each
// tree node its rows reach once. The whole-view Put is defined from it,
// so the two cannot disagree.
//
// The changeset must be the difference between the lens's current view of
// src (i.e. Get(src)) and the supplied view, as produced by
// reldb.Table.Diff. Changesets are immutable transfer objects: the
// returned table may share rows with them.

// PutDelta embeds view into src along the lens's delta path. An empty
// changeset short-circuits to a clone of src (the identity edit).
func PutDelta(l Lens, src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	if cs.Empty() {
		return src.Clone(), reldb.Changeset{}, nil
	}
	return l.PutDelta(src, view, cs)
}

// Put embeds a whole view into src: the delta put of the changeset from
// the lens's current view of src to view. It costs a Get and a Diff,
// O(table), so the sharing layer takes it only where it holds no
// changeset it can trust (a diverged replica, a repair). Put never
// mutates src or view.
func Put(l Lens, src, view *reldb.Table) (*reldb.Table, error) {
	cur, err := l.Get(src)
	if err != nil {
		return nil, err
	}
	if !cur.Schema().Equal(view.Schema()) {
		return nil, fmt.Errorf("%w: view schema does not match the lens's view of the source", ErrPutViolation)
	}
	cs, err := cur.Diff(view)
	if err != nil {
		return nil, err
	}
	newSrc, _, err := PutDelta(l, src, view, cs)
	return newSrc, err
}

// keyChanged reports whether two full rows differ in t's key columns.
func keyChanged(t *reldb.Table, a, b reldb.Row) bool {
	ka, kb := t.KeyValues(a), t.KeyValues(b)
	for i := range ka {
		if !ka[i].Equal(kb[i]) {
			return true
		}
	}
	return false
}

// sameKey reports whether the view key names equal the source key names
// in order — the condition under which a view key tuple addresses the
// source row directly.
func sameKey(srcKey, viewKey []string) bool {
	if len(srcKey) != len(viewKey) {
		return false
	}
	for i := range srcKey {
		if srcKey[i] != viewKey[i] {
			return false
		}
	}
	return true
}

// PutDelta implements Lens. When the view key coincides with the
// source key (the paper's D13/D31 shares) every changeset row addresses
// its source row directly through the primary index; re-keyed projections
// (D23/D32, view key ≠ source key) address the *group* of source rows
// sharing the view-key tuple through a secondary index on the source
// (built lazily once, maintained incrementally afterwards — see
// reldb.Table.RowsByCols). Both paths are O(changed source rows); nothing
// falls back to a full put or diff.
func (l *ProjectLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	srcSchema := src.Schema()
	wantView, err := l.ViewSchema(srcSchema)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !wantView.Equal(view.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: view schema does not match projection of source", ErrPutViolation)
	}

	srcIdxOfCol := make(map[string]int, len(srcSchema.Columns))
	for i, c := range srcSchema.Columns {
		srcIdxOfCol[c.Name] = i
	}
	colIdxInSrc := make([]int, len(l.Cols))
	for i, c := range l.Cols {
		colIdxInSrc[i] = srcIdxOfCol[c]
	}
	viewKeyIdx := wantView.KeyIndexes()

	rekeyed := !sameKey(srcSchema.Key, wantView.Key)
	if rekeyed {
		// Prime the view-key index on the source *before* editing: it
		// rides along the edit, the updated source inherits it, and every
		// later cycle over this share finds it already built (one O(n)
		// scan for the share's lifetime, maintained incrementally).
		if err := src.EnsureIndex(wantView.Key); err != nil {
			return nil, reldb.Changeset{}, err
		}
	}

	out := src.Edit()
	var srcCs reldb.Changeset

	// lookup returns the source rows a view row addresses: exactly one via
	// the primary index when the keys coincide, the whole view-key group
	// via the secondary index otherwise.
	var lookup func(vr reldb.Row) ([]reldb.Row, error)
	if !rekeyed {
		var keyBuf []byte
		lookup = func(vr reldb.Row) ([]reldb.Row, error) {
			keyBuf = keyBuf[:0]
			for _, j := range viewKeyIdx {
				keyBuf = vr[j].AppendOrdered(keyBuf)
			}
			sr, ok := out.GetKeyBytes(keyBuf)
			if !ok {
				return nil, nil
			}
			return []reldb.Row{sr}, nil
		}
	} else {
		viewKeyCols := wantView.Key
		lookup = func(vr reldb.Row) ([]reldb.Row, error) {
			key := make(reldb.Row, len(viewKeyIdx))
			for i, j := range viewKeyIdx {
				key[i] = vr[j]
			}
			return out.RowsByCols(viewKeyCols, key)
		}
	}

	for _, u := range cs.Updated {
		group, err := lookup(u.After)
		if err != nil {
			return nil, reldb.Changeset{}, err
		}
		if len(group) == 0 {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: delta update on view %s targets missing source row (stale changeset?)", ErrPutViolation, l.ViewName)
		}
		for _, sr := range group {
			updated := sr.Clone()
			for vi, si := range colIdxInSrc {
				updated[si] = u.After[vi]
			}
			// A re-keyed projection may project a *source* key column; a
			// view edit to it moves the source row to a new primary key —
			// a delete + insert both in the table and in the reported
			// changeset (an Updated entry is keyed by After and would not
			// replay). Upsert would leave the old row behind. When the
			// keys coincide the view's key is the source's, which an
			// Updated entry by construction never changes.
			if rekeyed && keyChanged(src, sr, updated) {
				if err := out.Delete(src.KeyValues(sr)); err != nil {
					return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
				}
				if err := out.Insert(updated); err != nil {
					return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
				}
				srcCs.Deleted = append(srcCs.Deleted, sr)
				srcCs.Inserted = append(srcCs.Inserted, updated)
				continue
			}
			if err := out.Upsert(updated); err != nil {
				return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
			}
			srcCs.Updated = append(srcCs.Updated, reldb.RowChange{Before: sr, After: updated})
		}
	}
	for _, vr := range cs.Deleted {
		if l.OnDelete != PolicyApply {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: view %s deleted row with key %v but lens forbids deletes", ErrPutViolation, l.ViewName, viewKeyOf(wantView, vr))
		}
		group, err := lookup(vr)
		if err != nil {
			return nil, reldb.Changeset{}, err
		}
		if len(group) == 0 {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: delta delete on view %s targets missing source row (stale changeset?)", ErrPutViolation, l.ViewName)
		}
		for _, sr := range group {
			if err := out.Delete(src.KeyValues(sr)); err != nil {
				return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
			}
			srcCs.Deleted = append(srcCs.Deleted, sr)
		}
	}
	for _, vr := range cs.Inserted {
		if l.OnInsert != PolicyApply {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: view %s inserted row with key %v but lens forbids inserts", ErrPutViolation, l.ViewName, viewKeyOf(wantView, vr))
		}
		nr := l.newSourceRow(srcSchema, colIdxInSrc, vr)
		if err := out.Insert(nr); err != nil {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: inserting through view %s: %v", ErrPutViolation, l.ViewName, err)
		}
		srcCs.Inserted = append(srcCs.Inserted, nr)
	}
	return out.Table(), srcCs, nil
}

// PutDelta implements Lens: a selection view shares the source
// schema and key, so every changeset row addresses its source row
// directly.
func (l *SelectLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	srcSchema := src.Schema()
	if !srcSchema.Equal(view.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: selection view schema must equal source schema", ErrPutViolation)
	}
	mustSatisfy := func(r reldb.Row) error {
		ok, err := l.Pred.Eval(srcSchema, r)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: view %s row %v does not satisfy the selection predicate", ErrPutViolation, l.ViewName, viewKeyOf(srcSchema, r))
		}
		return nil
	}

	out := src.Edit()
	var srcCs reldb.Changeset
	for _, u := range cs.Updated {
		if err := mustSatisfy(u.After); err != nil {
			return nil, reldb.Changeset{}, err
		}
		before, ok := out.Get(viewKeyOf(srcSchema, u.After))
		if !ok {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: delta update on view %s targets missing source row (stale changeset?)", ErrPutViolation, l.ViewName)
		}
		if err := out.Upsert(u.After); err != nil {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
		}
		srcCs.Updated = append(srcCs.Updated, reldb.RowChange{Before: before, After: u.After})
	}
	for _, vr := range cs.Deleted {
		if l.OnDelete != PolicyApply {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: view %s deleted row with key %v but lens forbids deletes", ErrPutViolation, l.ViewName, viewKeyOf(srcSchema, vr))
		}
		key := viewKeyOf(srcSchema, vr)
		before, ok := out.Get(key)
		if !ok {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: delta delete on view %s targets missing source row (stale changeset?)", ErrPutViolation, l.ViewName)
		}
		if err := out.Delete(key); err != nil {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
		}
		srcCs.Deleted = append(srcCs.Deleted, before)
	}
	for _, vr := range cs.Inserted {
		if l.OnInsert != PolicyApply {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: view %s inserted row with key %v but lens forbids inserts", ErrPutViolation, l.ViewName, viewKeyOf(srcSchema, vr))
		}
		if err := mustSatisfy(vr); err != nil {
			return nil, reldb.Changeset{}, err
		}
		if err := out.Insert(vr); err != nil {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: inserting through view %s: %v", ErrPutViolation, l.ViewName, err)
		}
		srcCs.Inserted = append(srcCs.Inserted, vr)
	}
	return out.Table(), srcCs, nil
}

// PutDelta implements Lens: renaming changes column names only, so
// the view changeset applies to the source verbatim.
func (l *RenameLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	want, err := l.ViewSchema(src.Schema())
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !want.Equal(view.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: view schema does not match renamed source", ErrPutViolation)
	}
	out := src.Clone()
	if err := out.Apply(cs); err != nil {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
	}
	return out, cs, nil
}

// PutDelta implements Lens: the outer delta is embedded into the
// intermediate view, and the changeset it induces there propagates to the
// inner lens — so a one-row edit stays one row through the whole chain.
// The intermediate view comes from the lens's memo when the source hash
// matches (the steady state of a cascade: every delta put refreshes the
// memo with the pair it just computed), eliminating the O(n)
// materializing get that used to be the last full-table step. The first
// call on a cold source pays one get plus one hash build; everything
// after is O(changed rows).
func (l *ComposeLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	// Force the hash state: O(n) once, maintained incrementally across
	// the copy-on-write clones every later cycle works on.
	srcHash := src.Hash()
	mid, ok := l.cachedMid(src)
	if !ok {
		var err error
		mid, err = l.Inner.Get(src)
		if err != nil {
			return nil, reldb.Changeset{}, err
		}
		l.rememberHash(srcHash, mid)
	}
	newMid, midCs, err := PutDelta(l.Outer, mid, view, cs)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	newSrc, srcCs, err := PutDelta(l.Inner, src, newMid, midCs)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	// Refresh the memo for the cascade's next hop: by PutGet on the inner
	// lens, Inner.Get(newSrc) = newMid, so the pair is exact.
	l.rememberHash(newSrc.Hash(), newMid)
	return newSrc, srcCs, nil
}
