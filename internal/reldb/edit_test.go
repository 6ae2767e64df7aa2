package reldb

import (
	"errors"
	"fmt"
	"testing"
)

// TestEditLeavesOriginAndDigests: an edit of a hashed table leaves the
// table as it was, and the edited table's hash — computed over digests
// cached on the nodes it shares — equals a fresh build's. A failed
// Apply leaves the table untouched.
func TestEditLeavesOriginAndDigests(t *testing.T) {
	base := bigPatients(t, 300).Reseeded([]byte("edit-test-seed"))
	baseHash := base.Hash()
	baseRows := base.RowsCanonical()

	ed := base.Edit()
	for i := 0; i < 300; i += 3 {
		if err := ed.Upsert(Row{I(int64(i)), S("edited"), S("Kyoto"), I(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 300; i += 7 {
		if err := ed.Delete(Row{I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ed.Insert(Row{I(1000), S("new"), Null(), I(2)}); err != nil {
		t.Fatal(err)
	}
	if err := ed.Insert(Row{I(1000), S("again"), Null(), I(2)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := ed.Delete(Row{I(1)}); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("delete of a deleted row: %v", err)
	}
	if r, ok := ed.Get(Row{I(3)}); !ok || !r.Equal(Row{I(3), S("edited"), S("Kyoto"), I(1)}) {
		t.Fatalf("Get during the edit: %v %v", r, ok)
	}
	out := ed.Table()

	fresh := MustNewTable(patientSchema()).Reseeded([]byte("edit-test-seed"))
	for _, r := range out.RowsCanonical() {
		fresh.MustInsert(r)
	}
	if out.Hash() != fresh.Hash() || !out.Equal(fresh) {
		t.Fatal("the edited table's hash diverges from a fresh build")
	}
	if base.Hash() != baseHash || fmt.Sprint(base.RowsCanonical()) != fmt.Sprint(baseRows) {
		t.Fatal("the edit changed the table it started from")
	}

	cs := Changeset{
		Updated:  []RowChange{{Before: baseRows[0], After: Row{I(0), S("x"), Null(), I(9)}}},
		Inserted: []Row{baseRows[5]}, // present: the insert fails
	}
	if err := base.Apply(cs); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("Apply of a bad changeset: %v", err)
	}
	if base.Hash() != baseHash {
		t.Fatal("a failed Apply changed the table")
	}
}

var sinkTable *Table

// BenchmarkTableApply512 applies a changeset of 512 (and 1) updated rows
// to a clone of a hashed, seeded 10k-row replica.
func BenchmarkTableApply512(b *testing.B) {
	base := bigPatients(b, 10_000).Reseeded([]byte("apply-bench-seed"))
	base.Hash()
	for _, rows := range []int{1, 512} {
		target := base.Clone()
		for i := 0; i < rows; i++ {
			if err := target.Update(Row{I(int64(i * 19))}, map[string]Value{"name": S("edited")}); err != nil {
				b.Fatal(err)
			}
		}
		cs, err := base.Diff(target)
		if err != nil || len(cs.Updated) != rows {
			b.Fatalf("changeset of %d updates: %v", len(cs.Updated), err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				t := base.Clone()
				if err := t.Apply(cs); err != nil {
					b.Fatal(err)
				}
				sinkTable = t
			}
		})
	}
}

// BenchmarkTableRowOps times the one-row mutators, each a one-operation
// edit: 512 and 1 Updates on a clone of a hashed, seeded 10k-row table,
// the same 512 when a secondary index over the updated column is built
// (each update moves its row to another group), and a 10k-row build by
// MustInsert.
func BenchmarkTableRowOps(b *testing.B) {
	base := bigPatients(b, 10_000).Reseeded([]byte("row-ops-bench-seed"))
	base.Hash()
	indexed := base.Clone()
	if err := indexed.EnsureIndex([]string{"city"}); err != nil {
		b.Fatal(err)
	}
	updates := func(b *testing.B, origin *Table, n int, col string) {
		b.ReportAllocs()
		set := map[string]Value{col: S("edited")}
		for b.Loop() {
			t := origin.Clone()
			for i := 0; i < n; i++ {
				if err := t.Update(Row{I(int64(i * 19))}, set); err != nil {
					b.Fatal(err)
				}
			}
			sinkTable = t
		}
	}
	b.Run("update=512", func(b *testing.B) { updates(b, base, 512, "name") })
	b.Run("update=1", func(b *testing.B) { updates(b, base, 1, "name") })
	b.Run("indexed_update=512", func(b *testing.B) { updates(b, indexed, 512, "city") })
	rows := base.RowsCanonical()
	b.Run("insert=10k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			t := MustNewTable(patientSchema())
			for _, r := range rows {
				t.MustInsert(r)
			}
			sinkTable = t
		}
	})
}

// BenchmarkEnsureIndex10k builds a secondary index over a 10k-row table
// that has none: the lazy build behind the first RowsByCols.
func BenchmarkEnsureIndex10k(b *testing.B) {
	base := bigPatients(b, 10_000)
	b.ReportAllocs()
	for b.Loop() {
		t := base.Clone()
		if err := t.EnsureIndex([]string{"age"}); err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}
