package bx

import (
	"fmt"
	"testing"

	"medshare/internal/reldb"
)

// This file is the "key-aligned vs positional put" ablation: it
// demonstrates *why* the projection lens aligns rows by key (the put
// semantics in ProjectLens's doc comment). A strawman positional put — write the i-th delivered view row's
// projected columns into the i-th source row — looks plausible, is what a
// naive implementation would do, and silently corrupts data the moment
// the payload enumerates rows in a different order than the receiver's
// source (which JSON transport, set semantics, or a remote peer's
// serialization history all cause). reldb tables themselves now enumerate
// in canonical key order (the persistent storage is key-sorted), so the
// reordering is modeled where it actually happens: the wire payload, a
// plain row slice whose order the receiver does not control.

// positionalPut is the strawman: zip source rows with the view rows in
// the order the payload delivered them.
func positionalPut(cols []string, src *reldb.Table, viewRows []reldb.Row, viewSchema reldb.Schema) (*reldb.Table, error) {
	srcSchema := src.Schema()
	out, err := reldb.NewTable(srcSchema)
	if err != nil {
		return nil, err
	}
	srcRows := src.RowsCanonical()
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		colIdx[i] = viewSchema.ColumnIndex(c)
	}
	for i, sr := range srcRows {
		updated := sr.Clone()
		if i < len(viewRows) {
			for j, c := range cols {
				if srcSchema.IsKeyColumn(c) {
					continue // the naive put keeps keys, zips the rest
				}
				updated[srcSchema.ColumnIndex(c)] = viewRows[i][colIdx[j]]
			}
		}
		if err := out.Insert(updated); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestPositionalPutCorruptsUnderReorder: the same logical view content,
// delivered in a different row order, makes the positional put scramble
// patients' data — while the key-aligned lens is order-insensitive.
func TestPositionalPutCorruptsUnderReorder(t *testing.T) {
	src := reldb.MustNewTable(recordsSchema())
	src.MustInsert(reldb.Row{reldb.I(1), reldb.S("medA"), reldb.S("dose-1"), reldb.S("m")})
	src.MustInsert(reldb.Row{reldb.I(2), reldb.S("medB"), reldb.S("dose-2"), reldb.S("m")})

	cols := []string{"pid", "dose"}
	lens := Project("v", cols, nil)
	view := mustGet(t, lens, src)

	// The counterparty edits row 1's dose and ships the view back, but
	// the payload lists the rows in the opposite order. Same logical
	// content; a keyed table built from it is order-insensitive.
	wireRows := []reldb.Row{
		{reldb.I(2), reldb.S("dose-2")},
		{reldb.I(1), reldb.S("dose-1-EDITED")},
	}
	reordered := reldb.MustNewTable(view.Schema())
	for _, r := range wireRows {
		reordered.MustInsert(r)
	}

	// Key-aligned put: correct regardless of order.
	aligned, err := Put(lens, src, reordered)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := aligned.Get(reldb.Row{reldb.I(1)})
	r2, _ := aligned.Get(reldb.Row{reldb.I(2)})
	if s, _ := r1[2].Str(); s != "dose-1-EDITED" {
		t.Fatalf("aligned put: patient 1 dose = %q", s)
	}
	if s, _ := r2[2].Str(); s != "dose-2" {
		t.Fatalf("aligned put: patient 2 dose = %q", s)
	}

	// Positional put: patient 1 receives patient 2's dosage and vice
	// versa — a medically catastrophic silent corruption. The put also
	// violates PutGet: projecting the "updated" source does not
	// reproduce the view that was put.
	positional, err := positionalPut(cols, src, wireRows, view.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := positional.Get(reldb.Row{reldb.I(1)})
	if s, _ := p1[2].Str(); s == "dose-1-EDITED" {
		t.Fatal("positional put accidentally correct; reorder the fixture")
	}
	got, err := positional.Project("v", cols, nil)
	if err == nil && got.Equal(reordered.Renamed(view.Name())) {
		t.Fatal("positional put unexpectedly satisfies PutGet")
	}
}

// BenchmarkAblationKeyAlignedPut quantifies what key alignment costs over
// the (broken) positional zip — the price of correctness. The aligned
// side is the whole-view Put: a get, a diff and the delta put.
func BenchmarkAblationKeyAlignedPut(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		src := reldb.MustNewTable(recordsSchema())
		for i := 0; i < rows; i++ {
			src.MustInsert(reldb.Row{
				reldb.I(int64(i)), reldb.S(fmt.Sprintf("med%d", i%7)),
				reldb.S("dose"), reldb.S("m"),
			})
		}
		cols := []string{"pid", "dose"}
		lens := Project("v", cols, nil)
		view, err := lens.Get(src)
		if err != nil {
			b.Fatal(err)
		}
		viewRows := view.RowsCanonical()
		b.Run(fmt.Sprintf("aligned/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Put(lens, src, view); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("positional-broken/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := positionalPut(cols, src, viewRows, view.Schema()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
