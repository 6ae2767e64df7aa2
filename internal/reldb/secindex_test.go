package reldb

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

func secTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := MustNewTable(patientSchema())
	for i := 0; i < n; i++ {
		tbl.MustInsert(Row{I(int64(i)), S(fmt.Sprintf("p%d", i)), S(fmt.Sprintf("city%d", i%4)), I(int64(20 + i%3))})
	}
	return tbl
}

// groupIDs extracts the id column of a lookup result, sorted.
func groupIDs(t *testing.T, rows []Row) []int64 {
	t.Helper()
	out := make([]int64, 0, len(rows))
	for _, r := range rows {
		v, _ := r[0].Int()
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanByCity is the O(n) reference the index must agree with.
func scanByCity(tbl *Table, city string) []int64 {
	var out []int64
	_ = tbl.Scan(func(r Row) (bool, error) {
		if s, _ := r[2].Str(); s == city {
			v, _ := r[0].Int()
			out = append(out, v)
		}
		return true, nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func expectGroup(t *testing.T, tbl *Table, city string) {
	t.Helper()
	rows, err := tbl.RowsByCols([]string{"city"}, Row{S(city)})
	if err != nil {
		t.Fatal(err)
	}
	got := groupIDs(t, rows)
	want := scanByCity(tbl, city)
	if len(got) != len(want) {
		t.Fatalf("city %s: got %v want %v", city, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("city %s: got %v want %v", city, got, want)
		}
	}
}

func TestRowsByColsBasic(t *testing.T) {
	tbl := secTable(t, 20)
	for i := 0; i < 4; i++ {
		expectGroup(t, tbl, fmt.Sprintf("city%d", i))
	}
	// Missing group.
	rows, err := tbl.RowsByCols([]string{"city"}, Row{S("nowhere")})
	if err != nil || len(rows) != 0 {
		t.Fatalf("missing group: rows=%v err=%v", rows, err)
	}
	// Multi-column index.
	rows, err = tbl.RowsByCols([]string{"city", "age"}, Row{S("city0"), I(20)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		c, _ := r[2].Str()
		a, _ := r[3].Int()
		if c != "city0" || a != 20 {
			t.Fatalf("row %v does not match composite key", r)
		}
	}
	// Unknown column errors.
	if _, err := tbl.RowsByCols([]string{"ghost"}, Row{S("x")}); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

// TestRowsByColsIncremental checks the index stays in sync through every
// mutator: insert, keyed update, upsert-replace, delete.
func TestRowsByColsIncremental(t *testing.T) {
	tbl := secTable(t, 12)
	expectGroup(t, tbl, "city1") // builds the index

	// Insert into an existing group and a fresh group.
	tbl.MustInsert(Row{I(100), S("new"), S("city1"), I(50)})
	tbl.MustInsert(Row{I(101), S("new2"), S("fresh"), I(50)})
	expectGroup(t, tbl, "city1")
	expectGroup(t, tbl, "fresh")

	// Update moves a row between groups.
	if err := tbl.Update(Row{I(1)}, map[string]Value{"city": S("city2")}); err != nil {
		t.Fatal(err)
	}
	expectGroup(t, tbl, "city1")
	expectGroup(t, tbl, "city2")

	// Upsert replaces in place.
	if err := tbl.Upsert(Row{I(2), S("p2x"), S("city3"), I(99)}); err != nil {
		t.Fatal(err)
	}
	expectGroup(t, tbl, "city2")
	expectGroup(t, tbl, "city3")

	// Delete unregisters (and exercises swap-with-last position moves).
	for _, id := range []int64{0, 100, 5} {
		if err := tbl.Delete(Row{I(id)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		expectGroup(t, tbl, fmt.Sprintf("city%d", i))
	}
	expectGroup(t, tbl, "fresh")
}

// TestRowsByColsCOW checks clone independence: the index is shared on
// clone, and either side's mutations are invisible to the other.
func TestRowsByColsCOW(t *testing.T) {
	tbl := secTable(t, 8)
	expectGroup(t, tbl, "city0") // build before cloning

	cl := tbl.Clone()
	if err := cl.Update(Row{I(0)}, map[string]Value{"city": S("moved")}); err != nil {
		t.Fatal(err)
	}
	expectGroup(t, cl, "city0")
	expectGroup(t, cl, "moved")
	// Original unchanged.
	expectGroup(t, tbl, "city0")
	if rows, _ := tbl.RowsByCols([]string{"city"}, Row{S("moved")}); len(rows) != 0 {
		t.Fatal("clone mutation leaked into original's index")
	}

	// Index built on the clone only, after sharing storage.
	cl2 := tbl.Clone()
	expectGroup(t, cl2, "city1")
	if err := tbl.Delete(Row{I(1)}); err != nil {
		t.Fatal(err)
	}
	expectGroup(t, tbl, "city1")
	expectGroup(t, cl2, "city1")
}

// TestRowsByColsConcurrentBuild races lazy builds from readers sharing
// one immutable snapshot (the serveDataFetch shape).
func TestRowsByColsConcurrentBuild(t *testing.T) {
	tbl := secTable(t, 50)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			cols := []string{"city"}
			if g%2 == 0 {
				cols = []string{"age"}
			}
			key := Row{S("city1")}
			if g%2 == 0 {
				key = Row{I(21)}
			}
			for i := 0; i < 50; i++ {
				if _, err := tbl.RowsByCols(cols, key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnsureIndexFromAdvancesOldIndex: a snapshot from a lineage that
// never built the index (here: rebuilt row by row) takes it over from
// the old version plus the changeset, agrees with a scan on every group
// the edits touched, and keeps maintaining it afterwards.
func TestEnsureIndexFromAdvancesOldIndex(t *testing.T) {
	old := secTable(t, 40)
	edited := old.Clone()
	if err := edited.Update(Row{I(3)}, map[string]Value{"city": S("city9")}); err != nil {
		t.Fatal(err)
	}
	if err := edited.Update(Row{I(4)}, map[string]Value{"name": S("renamed")}); err != nil {
		t.Fatal(err)
	}
	if err := edited.Delete(Row{I(8)}); err != nil {
		t.Fatal(err)
	}
	edited.MustInsert(Row{I(100), S("new"), S("city1"), I(30)})
	next := MustNewTable(patientSchema())
	for _, r := range edited.RowsCanonical() {
		next.MustInsert(r)
	}
	cs, err := old.Diff(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.EnsureIndexFrom(old, cs, []string{"city"}); err != nil {
		t.Fatal(err)
	}
	if secs := next.secondary.Load(); secs == nil || (*secs)[secName([]string{"city"})] == nil {
		t.Fatal("index not published on the new snapshot")
	}
	for _, c := range []string{"city0", "city1", "city2", "city3", "city9"} {
		expectGroup(t, next, c)
		expectGroup(t, old, c)
	}
	if err := next.Update(Row{I(100)}, map[string]Value{"city": S("city2")}); err != nil {
		t.Fatal(err)
	}
	expectGroup(t, next, "city1")
	expectGroup(t, next, "city2")
}
