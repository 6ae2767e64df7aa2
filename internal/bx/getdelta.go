package bx

import (
	"fmt"

	"medshare/internal/reldb"
)

// Forward delta propagation, the counterpart of PutDelta: a proposal
// regenerates the view from an edited source (Fig. 5 steps 1-2), and the
// source edit is known as a changeset against the snapshot the view was
// last derived from. GetDelta edits a copy-on-write clone of that view
// row by row, so the new view shares every untouched subtree — and its
// cached digests — with the old one: hashing it and diffing it against
// the old view cost O(changed rows · log n), like deriving it.

// GetDelta derives the view of newSrc along the lens's delta path. An
// empty source changeset is the identity.
func GetDelta(l Lens, oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	if srcCs.Empty() {
		return oldView.Clone(), reldb.Changeset{}, nil
	}
	return l.GetDelta(oldSrc, newSrc, oldView, srcCs)
}

// putRow stores vr in the view under construction unless an equal row is
// already there: a source edit the view does not see leaves the row's
// entry and subtree shared with the old view, and out of the final diff.
func putRow(out *reldb.Table, vr reldb.Row) error {
	if cur, ok := out.Get(out.KeyValues(vr)); ok && cur.Equal(vr) {
		return nil
	}
	return out.UpsertOwned(vr)
}

// getDeltaRowwise is GetDelta for every lens whose view keeps the source
// key and derives each view row from one source row: f maps a source row
// to its view row, nil when the view does not show it.
func getDeltaRowwise(oldSrc, oldView *reldb.Table, srcCs reldb.Changeset, f func(reldb.Row) (reldb.Row, error)) (*reldb.Table, reldb.Changeset, error) {
	out := oldView.Clone()
	drop := func(sr reldb.Row) {
		if key := oldSrc.KeyValues(sr); out.Has(key) {
			_ = out.Delete(key) // present: cannot fail
		}
	}
	// show installs a source row's new image, or removes the row when the
	// view no longer shows it (a no-op for an insert it never showed).
	show := func(sr reldb.Row) error {
		vr, err := f(sr)
		if err != nil {
			return err
		}
		if vr == nil {
			drop(sr)
			return nil
		}
		return putRow(out, vr)
	}
	for _, r := range srcCs.Deleted {
		drop(r)
	}
	for _, u := range srcCs.Updated {
		if err := show(u.After); err != nil {
			return nil, reldb.Changeset{}, err
		}
	}
	for _, r := range srcCs.Inserted {
		if err := show(r); err != nil {
			return nil, reldb.Changeset{}, err
		}
	}
	cs, err := oldView.Diff(out)
	return out, cs, err
}

// GetDelta implements Lens. With the view keyed like the source each
// changed source row is one changed view row. A re-keyed projection
// (D23/D32) shows one row per *group* of source rows sharing a view-key
// tuple, so every group a changed row left or joined is derived again
// from the new source through its secondary index on the view key —
// emptied groups leave the view, and a group whose rows now disagree on a
// projected column fails like Get.
func (l *ProjectLens) GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	srcSchema := newSrc.Schema()
	wantView, err := l.ViewSchema(srcSchema)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !wantView.Equal(oldView.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: view schema does not match projection of source", ErrSpecInvalid)
	}
	colIdxInSrc := make([]int, len(l.Cols))
	for i, c := range l.Cols {
		colIdxInSrc[i] = srcSchema.ColumnIndex(c)
	}
	project := func(sr reldb.Row) reldb.Row {
		vr := make(reldb.Row, len(colIdxInSrc))
		for i, si := range colIdxInSrc {
			vr[i] = sr[si]
		}
		return vr
	}
	if sameKey(srcSchema.Key, wantView.Key) {
		return getDeltaRowwise(oldSrc, oldView, srcCs, func(sr reldb.Row) (reldb.Row, error) { return project(sr), nil })
	}

	// The index rides from snapshot to snapshot: built once on the first
	// old source, advanced by each changeset afterwards.
	if err := newSrc.EnsureIndexFrom(oldSrc, srcCs, wantView.Key); err != nil {
		return nil, reldb.Changeset{}, err
	}
	out := oldView.Clone()
	done := make(map[string]bool)
	regroup := func(sr reldb.Row) error {
		key := out.KeyValues(project(sr))
		ks := keyString(key)
		if done[ks] {
			return nil
		}
		done[ks] = true
		group, err := newSrc.RowsByCols(wantView.Key, key)
		if err != nil {
			return err
		}
		if len(group) == 0 {
			if out.Has(key) {
				return out.Delete(key)
			}
			return nil
		}
		vr := project(group[0])
		for _, g := range group[1:] {
			if !project(g).Equal(vr) {
				return fmt.Errorf("%w: projection %s is not functional on key %v", reldb.ErrSchemaInvalid, l.ViewName, key)
			}
		}
		return putRow(out, vr)
	}
	touched := append([]reldb.Row(nil), srcCs.Deleted...)
	for _, u := range srcCs.Updated {
		// A hidden-column edit leaves the row's group as it was.
		if !project(u.Before).Equal(project(u.After)) {
			touched = append(touched, u.Before, u.After)
		}
	}
	for _, r := range append(touched, srcCs.Inserted...) {
		if err := regroup(r); err != nil {
			return nil, reldb.Changeset{}, err
		}
	}
	cs, err := oldView.Diff(out)
	return out, cs, err
}

// GetDelta implements Lens: a row is in the view exactly when its new
// image satisfies the predicate, so rows enter, leave and change by the
// before/after images alone.
func (l *SelectLens) GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	srcSchema := newSrc.Schema()
	if !srcSchema.Equal(oldView.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: selection view schema must equal source schema", ErrSpecInvalid)
	}
	return getDeltaRowwise(oldSrc, oldView, srcCs, func(sr reldb.Row) (reldb.Row, error) {
		if ok, err := l.Pred.Eval(srcSchema, sr); err != nil || !ok {
			return nil, err
		}
		return sr, nil
	})
}

// GetDelta implements Lens: renaming changes column names only, so the
// source changeset applies to the view verbatim.
func (l *RenameLens) GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	want, err := l.ViewSchema(newSrc.Schema())
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !want.Equal(oldView.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: view schema does not match renamed source", ErrSpecInvalid)
	}
	return getDeltaRowwise(oldSrc, oldView, srcCs, func(sr reldb.Row) (reldb.Row, error) { return sr, nil })
}

// GetDelta implements Lens: each changed source row joins the reference
// again through the plan's index; one that matches no reference row
// fails like Get.
func (l *JoinLens) GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	p, err := l.plan(newSrc)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !p.want.Equal(oldView.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: join view schema mismatch", ErrSpecInvalid)
	}
	var keyBuf []byte
	return getDeltaRowwise(oldSrc, oldView, srcCs, func(sr reldb.Row) (vr reldb.Row, err error) {
		vr, keyBuf, err = l.viewRow(p, keyBuf, sr, newSrc.Name())
		return vr, err
	})
}

// GetDelta implements Lens: the source changeset becomes the intermediate
// view's through the inner lens, and that one the view's through the
// outer. The old intermediate view comes from the memo PutDelta shares
// (a source the lens has seen costs no get), and the new one is
// remembered for the next call either way.
func (l *ComposeLens) GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	oldHash := oldSrc.Hash() // O(n) once per lineage, O(changed rows · log n) after
	oldMid, ok := l.cachedMid(oldSrc)
	if !ok {
		var err error
		if oldMid, err = l.Inner.Get(oldSrc); err != nil {
			return nil, reldb.Changeset{}, err
		}
		l.rememberHash(oldHash, oldMid)
	}
	newMid, midCs, err := GetDelta(l.Inner, oldSrc, newSrc, oldMid, srcCs)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	l.rememberHash(newSrc.Hash(), newMid)
	return GetDelta(l.Outer, oldMid, newMid, oldView, midCs)
}
