package bx

import (
	"fmt"

	"medshare/internal/reldb"
)

// CheckGetPut verifies the GetPut law on concrete data:
//
//	put(src, get(src)) = src
//
// i.e. putting back an unmodified view must not change the source. Put of
// an unchanged view is a clone by construction, so the check drives the
// lens's own PutDelta instead: every view row goes back as an update to
// itself, which touches every row the way a whole-table put would.
func CheckGetPut(l Lens, src *reldb.Table) error {
	view, err := l.Get(src)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	var cs reldb.Changeset
	for _, r := range view.RowsCanonical() {
		cs.Updated = append(cs.Updated, reldb.RowChange{Before: r, After: r})
	}
	back, _, err := l.PutDelta(src, view, cs)
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	if !back.Equal(src) {
		return fmt.Errorf("%w: GetPut: put(s, get(s)) != s for lens %s", ErrLawViolation, describe(l))
	}
	return nil
}

// CheckPutGet verifies the PutGet law on concrete data:
//
//	get(put(src, view)) = view
//
// i.e. every edit on the view survives the round trip through the source.
func CheckPutGet(l Lens, src, view *reldb.Table) error {
	newSrc, err := Put(l, src, view)
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	got, err := l.Get(newSrc)
	if err != nil {
		return fmt.Errorf("get after put: %w", err)
	}
	if !got.Equal(view) {
		return fmt.Errorf("%w: PutGet: get(put(s, v)) != v for lens %s", ErrLawViolation, describe(l))
	}
	return nil
}

// CheckWellBehaved verifies both laws: GetPut on the source, and PutGet on
// the source with its own view (the identity edit) — the strongest check
// possible without an edit generator. Callers with a concrete edited view
// should prefer CheckPutGet directly.
func CheckWellBehaved(l Lens, src *reldb.Table) error {
	if err := CheckGetPut(l, src); err != nil {
		return err
	}
	view, err := l.Get(src)
	if err != nil {
		return err
	}
	return CheckPutGet(l, src, view)
}

func describe(l Lens) string {
	b, err := l.Spec().Marshal()
	if err != nil {
		return "<unserializable lens>"
	}
	return string(b)
}
