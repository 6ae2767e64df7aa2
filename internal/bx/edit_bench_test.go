package bx

import (
	"fmt"
	"testing"

	"medshare/internal/reldb"
)

var sinkTable *reldb.Table

// BenchmarkPutDelta512 puts a 512-row (and a 1-row) edit of the D13 view
// — a key-aligned projection with delete and insert policies — into its
// hashed 10k-row D1 source.
func BenchmarkPutDelta512(b *testing.B) {
	schema := reldb.Schema{
		Name: "D1",
		Columns: []reldb.Column{
			{Name: "a0", Type: reldb.KindInt},
			{Name: "a1", Type: reldb.KindString},
			{Name: "a2", Type: reldb.KindString},
			{Name: "a3", Type: reldb.KindString},
			{Name: "a4", Type: reldb.KindString},
		},
		Key: []string{"a0"},
	}
	src := reldb.MustNewTable(schema)
	for i := 0; i < 10_000; i++ {
		src.MustInsert(reldb.Row{reldb.I(int64(i)), reldb.S(fmt.Sprintf("Med-%06d", i)),
			reldb.S("clinical"), reldb.S(fmt.Sprintf("addr-%d", i)), reldb.S("10mg")})
	}
	src.Hash()
	l := Project("D13", []string{"a0", "a1", "a2", "a4"}, nil).
		WithDelete(PolicyApply).
		WithInsert(PolicyApply, map[string]reldb.Value{"a3": reldb.S("unknown")})
	view, err := l.Get(src)
	if err != nil {
		b.Fatal(err)
	}
	view.Hash()
	for _, rows := range []int{1, 512} {
		edited := view.Clone()
		for i := 0; i < rows; i++ {
			if err := edited.Update(reldb.Row{reldb.I(int64(100 + i))}, map[string]reldb.Value{"a4": reldb.S("20mg")}); err != nil {
				b.Fatal(err)
			}
		}
		cs, err := view.Diff(edited)
		if err != nil || cs.Size() != rows {
			b.Fatalf("changeset of %d rows: %v", cs.Size(), err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				out, _, err := PutDelta(l, src, edited, cs)
				if err != nil {
					b.Fatal(err)
				}
				sinkTable = out
			}
		})
	}
}
