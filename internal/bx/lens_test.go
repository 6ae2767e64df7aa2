package bx

import (
	"fmt"
	"math/rand"
	"testing"

	"medshare/internal/reldb"
)

// recordsSchema mirrors the paper's full medical record shape, slimmed to
// four columns for focused lens tests.
func recordsSchema() reldb.Schema {
	return reldb.Schema{
		Name: "records",
		Columns: []reldb.Column{
			{Name: "pid", Type: reldb.KindInt},
			{Name: "med", Type: reldb.KindString},
			{Name: "dose", Type: reldb.KindString},
			{Name: "mech", Type: reldb.KindString},
		},
		Key: []string{"pid"},
	}
}

// genRecords builds a random records table in which mech is a function of
// med (the Fig. 1 functional dependency a1 -> a5).
func genRecords(rng *rand.Rand, n int) *reldb.Table {
	t := reldb.MustNewTable(recordsSchema())
	for i := 0; i < n; i++ {
		med := fmt.Sprintf("med%d", rng.Intn(6))
		t.MustInsert(reldb.Row{
			reldb.I(int64(i)),
			reldb.S(med),
			reldb.S(fmt.Sprintf("dose%d", rng.Intn(10))),
			reldb.S("mech-of-" + med),
		})
	}
	return t
}

func mustGet(t *testing.T, l Lens, src *reldb.Table) *reldb.Table {
	t.Helper()
	v, err := l.Get(src)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	return v
}

func TestProjectGetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := genRecords(rng, 10)
	l := Project("v", []string{"pid", "dose"}, nil)
	v := mustGet(t, l, src)
	if v.Len() != 10 {
		t.Fatalf("rows = %d", v.Len())
	}
	if got := v.Schema().ColumnNames(); len(got) != 2 || got[0] != "pid" || got[1] != "dose" {
		t.Fatalf("columns = %v", got)
	}
}

func TestProjectGetNonSourceKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := genRecords(rng, 20)
	l := Project("v", []string{"med", "mech"}, []string{"med"})
	v := mustGet(t, l, src)
	// Dedup by medication: row count equals distinct medications.
	meds := make(map[string]bool)
	for _, r := range src.Rows() {
		s, _ := r[1].Str()
		meds[s] = true
	}
	if v.Len() != len(meds) {
		t.Fatalf("rows = %d, want %d distinct medications", v.Len(), len(meds))
	}
}

func TestProjectPutFieldUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := genRecords(rng, 8)
	l := Project("v", []string{"pid", "dose"}, nil)
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"dose": reldb.S("NEW")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := newSrc.Get(reldb.Row{reldb.I(3)})
	if s, _ := got[2].Str(); s != "NEW" {
		t.Fatalf("dose = %q", s)
	}
	// Hidden columns untouched.
	orig, _ := src.Get(reldb.Row{reldb.I(3)})
	if !got[1].Equal(orig[1]) || !got[3].Equal(orig[3]) {
		t.Fatal("hidden columns modified by put")
	}
}

func TestProjectPutFanOut(t *testing.T) {
	// A med-keyed view row update must reach every source row with that
	// medication (the D32 -> D3 direction of Fig. 5).
	src := reldb.MustNewTable(recordsSchema())
	src.MustInsert(reldb.Row{reldb.I(1), reldb.S("ibu"), reldb.S("d1"), reldb.S("m-old")})
	src.MustInsert(reldb.Row{reldb.I(2), reldb.S("ibu"), reldb.S("d2"), reldb.S("m-old")})
	src.MustInsert(reldb.Row{reldb.I(3), reldb.S("wel"), reldb.S("d3"), reldb.S("w")})
	l := Project("v", []string{"med", "mech"}, []string{"med"})
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.S("ibu")}, map[string]reldb.Value{"mech": reldb.S("m-new")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range []int64{1, 2} {
		r, _ := newSrc.Get(reldb.Row{reldb.I(pid)})
		if s, _ := r[3].Str(); s != "m-new" {
			t.Fatalf("pid %d mech = %q", pid, s)
		}
	}
	r, _ := newSrc.Get(reldb.Row{reldb.I(3)})
	if s, _ := r[3].Str(); s != "w" {
		t.Fatal("unrelated medication touched")
	}
}

func TestProjectPutDeleteForbidden(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := genRecords(rng, 5)
	l := Project("v", []string{"pid", "dose"}, nil) // forbid policies
	v := mustGet(t, l, src)
	if err := v.Delete(reldb.Row{reldb.I(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); err == nil {
		t.Fatal("delete through forbid lens should fail")
	}
}

func TestProjectPutDeleteApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := genRecords(rng, 5)
	l := Project("v", []string{"pid", "dose"}, nil).WithDelete(PolicyApply)
	v := mustGet(t, l, src)
	if err := v.Delete(reldb.Row{reldb.I(0)}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	if newSrc.Has(reldb.Row{reldb.I(0)}) {
		t.Fatal("source row not deleted")
	}
	if newSrc.Len() != 4 {
		t.Fatalf("len = %d", newSrc.Len())
	}
}

func TestProjectPutInsertForbidden(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := genRecords(rng, 3)
	l := Project("v", []string{"pid", "dose"}, nil)
	v := mustGet(t, l, src)
	if err := v.Insert(reldb.Row{reldb.I(99), reldb.S("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); err == nil {
		t.Fatal("insert through forbid lens should fail")
	}
}

func TestProjectPutInsertWithDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genRecords(rng, 3)
	l := Project("v", []string{"pid", "dose"}, nil).
		WithInsert(PolicyApply, map[string]reldb.Value{
			"med":  reldb.S("unknown-med"),
			"mech": reldb.S("unknown-mech"),
		})
	v := mustGet(t, l, src)
	if err := v.Insert(reldb.Row{reldb.I(99), reldb.S("new-dose")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := newSrc.Get(reldb.Row{reldb.I(99)})
	if !ok {
		t.Fatal("inserted row missing from source")
	}
	if s, _ := r[1].Str(); s != "unknown-med" {
		t.Fatalf("default med = %q", s)
	}
	if s, _ := r[2].Str(); s != "new-dose" {
		t.Fatalf("dose = %q", s)
	}
}

func TestProjectPutInsertMissingDefaultFails(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := genRecords(rng, 3)
	// med has no default and is not nullable: insert must fail cleanly.
	l := Project("v", []string{"pid", "dose"}, nil).
		WithInsert(PolicyApply, map[string]reldb.Value{"mech": reldb.S("m")})
	v := mustGet(t, l, src)
	if err := v.Insert(reldb.Row{reldb.I(99), reldb.S("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); err == nil {
		t.Fatal("insert without required default should fail")
	}
}

func TestProjectPutRejectsWrongSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := genRecords(rng, 3)
	l := Project("v", []string{"pid", "dose"}, nil)
	wrong := reldb.MustNewTable(reldb.Schema{
		Name:    "v",
		Columns: []reldb.Column{{Name: "pid", Type: reldb.KindInt}},
		Key:     []string{"pid"},
	})
	if _, err := Put(l, src, wrong); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestProjectPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := genRecords(rng, 6)
	before := src.Hash()
	l := Project("v", []string{"pid", "dose"}, nil)
	v := mustGet(t, l, src)
	vBefore := v.Hash()
	if err := v.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"dose": reldb.S("z")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); err != nil {
		t.Fatal(err)
	}
	if src.Hash() != before {
		t.Fatal("put mutated the source argument")
	}
	v2 := mustGet(t, l, src)
	if v2.Hash() != vBefore {
		t.Fatal("get result changed without source change")
	}
}
