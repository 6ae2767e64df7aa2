package reldb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func bigPatients(tb testing.TB, n int) *Table {
	tb.Helper()
	t := MustNewTable(patientSchema())
	for i := 0; i < n; i++ {
		t.MustInsert(Row{I(int64(i)), S(fmt.Sprintf("p%d", i)), S("Osaka"), I(int64(20 + i%60))})
	}
	return t
}

// TestRowsZeroRowCopies: Rows() on a 1000-row table must not copy any row
// data — only the slice of row headers is allocated. This is the
// alloc-regression guard for the copy-on-write storage.
func TestRowsZeroRowCopies(t *testing.T) {
	tbl := bigPatients(t, 1000)
	var sink []Row
	allocs := testing.AllocsPerRun(20, func() {
		sink = tbl.RowsCanonical()
	})
	if allocs > 1 {
		t.Fatalf("Rows() allocates %v times per call, want 1 (the header slice)", allocs)
	}
	// The returned rows must be shared references, not copies.
	a, b := tbl.RowsCanonical(), tbl.RowsCanonical()
	if &a[0][0] != &b[0][0] {
		t.Fatal("Rows() copied row data")
	}
	_ = sink
}

// TestRowsCanonicalCached: repeated canonical reads must not re-sort.
func TestRowsCanonicalCached(t *testing.T) {
	tbl := bigPatients(t, 1000)
	tbl.RowsCanonical() // warm the order cache
	allocs := testing.AllocsPerRun(20, func() {
		tbl.RowsCanonical()
	})
	if allocs > 1 {
		t.Fatalf("RowsCanonical() allocates %v times per call after warm-up, want 1", allocs)
	}
	// Mutation invalidates the cache.
	tbl.MustInsert(Row{I(5000), S("new"), Null(), I(30)})
	rows := tbl.RowsCanonical()
	if v, _ := rows[len(rows)-1][0].Int(); v != 5000 {
		t.Fatal("canonical order cache not invalidated by insert")
	}
}

// TestCloneCOWIndependenceBothWays: mutations on either side of a clone
// must be invisible to the other, for every mutation kind.
func TestCloneCOWIndependenceBothWays(t *testing.T) {
	orig := bigPatients(t, 10)
	origHash := orig.Hash()

	clone := orig.Clone()
	if err := clone.Update(Row{I(1)}, map[string]Value{"age": I(99)}); err != nil {
		t.Fatal(err)
	}
	if err := clone.Delete(Row{I(2)}); err != nil {
		t.Fatal(err)
	}
	clone.MustInsert(Row{I(100), S("new"), Null(), I(1)})
	if orig.Hash() != origHash {
		t.Fatal("clone mutations leaked into original")
	}
	if v, _ := mustRow(t, orig, Row{I(1)})[3].Int(); v != 21 {
		t.Fatal("original row changed")
	}

	clone2 := orig.Clone()
	if err := orig.Update(Row{I(3)}, map[string]Value{"city": S("Kyoto")}); err != nil {
		t.Fatal(err)
	}
	if err := orig.Delete(Row{I(4)}); err != nil {
		t.Fatal(err)
	}
	if clone2.Hash() != origHash {
		t.Fatal("original mutations leaked into clone")
	}
	if !clone2.Has(Row{I(4)}) {
		t.Fatal("delete on original visible through clone")
	}
}

func mustRow(t *testing.T, tbl *Table, key Row) Row {
	t.Helper()
	r, ok := tbl.Get(key)
	if !ok {
		t.Fatalf("row %v missing", key)
	}
	return r
}

// TestIncrementalHashAgreesWithRebuild drives a random mutation sequence
// with Hash() calls interleaved (so the incremental maintenance runs) and
// checks the final hash equals that of a freshly built table with the
// same contents.
func TestIncrementalHashAgreesWithRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := MustNewTable(patientSchema())
		for op := 0; op < 120; op++ {
			id := int64(rng.Intn(25))
			switch rng.Intn(5) {
			case 0:
				_ = tbl.Insert(Row{I(id), S(fmt.Sprintf("p%d", id)), Null(), I(int64(rng.Intn(90)))})
			case 1:
				_ = tbl.Delete(Row{I(id)})
			case 2:
				_ = tbl.Update(Row{I(id)}, map[string]Value{"age": I(int64(rng.Intn(90)))})
			case 3:
				_ = tbl.Upsert(Row{I(id), S(fmt.Sprintf("q%d", id)), S("Kobe"), I(int64(rng.Intn(90)))})
			case 4:
				_ = tbl.Hash() // force the lazy digest build mid-sequence
			}
		}
		rebuilt := MustNewTable(patientSchema())
		for _, r := range tbl.RowsCanonical() {
			rebuilt.MustInsert(r)
		}
		if tbl.Hash() != rebuilt.Hash() {
			t.Logf("seed %d: incremental hash diverged from rebuild", seed)
			return false
		}
		if !tbl.Equal(rebuilt) {
			t.Logf("seed %d: contents diverged", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHashAfterChangesetApply: the O(changed rows) replica path — clone
// the base, apply a changeset, hash — must agree with a full rebuild.
func TestHashAfterChangesetApply(t *testing.T) {
	base := bigPatients(t, 50)
	base.Hash() // replicas are hashed, so clones inherit digest state
	target := base.Clone()
	if err := target.Update(Row{I(7)}, map[string]Value{"age": I(77)}); err != nil {
		t.Fatal(err)
	}
	if err := target.Delete(Row{I(8)}); err != nil {
		t.Fatal(err)
	}
	target.MustInsert(Row{I(900), S("new"), Null(), I(1)})

	cs, err := base.Diff(target)
	if err != nil {
		t.Fatal(err)
	}
	applied := base.Clone()
	if err := applied.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if applied.Hash() != target.Hash() {
		t.Fatal("hash after changeset apply diverges")
	}
	rebuilt := MustNewTable(patientSchema())
	for _, r := range target.RowsCanonical() {
		rebuilt.MustInsert(r)
	}
	if applied.Hash() != rebuilt.Hash() {
		t.Fatal("hash after changeset apply diverges from rebuild")
	}
}

// TestValidateDiffRejectsPaddedChangesets: a delete+insert pair for an
// unchanged row reproduces the right table under Apply (so it passes a
// payload-hash check) but is not the minimal diff — replaying it through
// a lens's structural-edit policies would wipe hidden source columns.
// ValidateDiff must reject it, and must accept real diffs and key renames.
func TestValidateDiffRejectsPaddedChangesets(t *testing.T) {
	base := bigPatients(t, 10)
	target := base.Clone()
	if err := target.Update(Row{I(3)}, map[string]Value{"age": I(99)}); err != nil {
		t.Fatal(err)
	}

	good, err := base.Diff(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.ValidateDiff(target, good); err != nil {
		t.Fatalf("minimal diff rejected: %v", err)
	}

	// Pad the changeset with a no-op delete+insert of an unchanged row.
	row := mustRow(t, base, Row{I(5)})
	padded := Changeset{
		Updated:  good.Updated,
		Deleted:  []Row{row},
		Inserted: []Row{row},
	}
	applied := base.Clone()
	if err := applied.Apply(padded); err != nil {
		t.Fatal(err)
	}
	if applied.Hash() != target.Hash() {
		t.Fatal("padded changeset should still reproduce the target (that is the attack)")
	}
	if err := base.ValidateDiff(target, padded); err == nil {
		t.Fatal("padded changeset passed validation")
	}

	// A genuine key rename (delete key A, insert key B) stays valid.
	renameTarget := base.Clone()
	if err := renameTarget.Delete(Row{I(6)}); err != nil {
		t.Fatal(err)
	}
	moved := mustRow(t, base, Row{I(6)}).Clone()
	moved[0] = I(600)
	renameTarget.MustInsert(moved)
	rename, err := base.Diff(renameTarget)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.ValidateDiff(renameTarget, rename); err != nil {
		t.Fatalf("key rename rejected: %v", err)
	}
}

// TestRenamedSharesStorageAndHash: Renamed is O(1) in row data and the
// hash ignores the table name (the paper's D13/D31 replicas).
func TestRenamedSharesStorageAndHash(t *testing.T) {
	a := bigPatients(t, 100)
	b := a.Renamed("other")
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on table name")
	}
	ra, rb := a.RowsCanonical(), b.RowsCanonical()
	if &ra[0][0] != &rb[0][0] {
		t.Fatal("Renamed copied row data")
	}
}
