package bx

import (
	"errors"
	"math/rand"
	"testing"

	"medshare/internal/reldb"
)

func TestSelectGetFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := genRecords(rng, 20)
	l := Select("v", reldb.Cmp("pid", reldb.OpLt, reldb.I(5)))
	v := mustGet(t, l, src)
	if v.Len() != 5 {
		t.Fatalf("rows = %d", v.Len())
	}
	for _, r := range v.Rows() {
		if pid, _ := r[0].Int(); pid >= 5 {
			t.Fatalf("row %v escaped predicate", r)
		}
	}
}

func TestSelectPutUpdatesVisibleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := genRecords(rng, 10)
	l := Select("v", reldb.Cmp("pid", reldb.OpLt, reldb.I(3)))
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"dose": reldb.S("NEW")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newSrc.Get(reldb.Row{reldb.I(1)})
	if s, _ := r[2].Str(); s != "NEW" {
		t.Fatalf("dose = %q", s)
	}
	// Invisible rows pass through untouched.
	for pid := int64(3); pid < 10; pid++ {
		a, _ := src.Get(reldb.Row{reldb.I(pid)})
		b, _ := newSrc.Get(reldb.Row{reldb.I(pid)})
		if !a.Equal(b) {
			t.Fatalf("invisible row %d modified", pid)
		}
	}
}

func TestSelectPutRejectsPredicateEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := genRecords(rng, 6)
	l := Select("v", reldb.Eq("med", reldb.S("med1")))
	v := mustGet(t, l, src)
	if v.Len() == 0 {
		t.Skip("no med1 rows in this seed")
	}
	rows := v.RowsCanonical()
	if err := v.Update(v.KeyValues(rows[0]), map[string]reldb.Value{"med": reldb.S("med9")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("want ErrPutViolation, got %v", err)
	}
}

func TestSelectPutDeletePolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := genRecords(rng, 8)
	forbid := Select("v", reldb.Cmp("pid", reldb.OpLt, reldb.I(4)))
	apply := Select("v", reldb.Cmp("pid", reldb.OpLt, reldb.I(4))).WithDelete(PolicyApply)

	v := mustGet(t, forbid, src)
	if err := v.Delete(reldb.Row{reldb.I(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(forbid, src, v); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("forbid: want ErrPutViolation, got %v", err)
	}
	newSrc, err := Put(apply, src, v)
	if err != nil {
		t.Fatal(err)
	}
	if newSrc.Has(reldb.Row{reldb.I(0)}) {
		t.Fatal("apply: row not deleted")
	}
	if newSrc.Len() != 7 {
		t.Fatalf("len = %d", newSrc.Len())
	}
}

func TestSelectPutInsertPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := genRecords(rng, 4)
	newRow := reldb.Row{reldb.I(100), reldb.S("med1"), reldb.S("d"), reldb.S("m")}

	forbid := Select("v", reldb.Cmp("pid", reldb.OpGe, reldb.I(0)))
	v := mustGet(t, forbid, src)
	if err := v.Insert(newRow); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(forbid, src, v); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("forbid: want ErrPutViolation, got %v", err)
	}

	apply := Select("v", reldb.Cmp("pid", reldb.OpGe, reldb.I(0))).WithInsert(PolicyApply)
	newSrc, err := Put(apply, src, v)
	if err != nil {
		t.Fatal(err)
	}
	if !newSrc.Has(reldb.Row{reldb.I(100)}) {
		t.Fatal("apply: row not inserted")
	}
}

func TestSelectPutSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := genRecords(rng, 2)
	l := Select("v", reldb.True())
	wrong := reldb.MustNewTable(reldb.Schema{
		Name:    "v",
		Columns: []reldb.Column{{Name: "pid", Type: reldb.KindInt}},
		Key:     []string{"pid"},
	})
	if _, err := Put(l, src, wrong); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("want ErrPutViolation, got %v", err)
	}
}

func TestRenameGetPutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genRecords(rng, 6)
	l := Rename("v", map[string]string{"pid": "patient_number", "mech": "mechanism"})
	v := mustGet(t, l, src)
	s := v.Schema()
	if !s.HasColumn("patient_number") || !s.HasColumn("mechanism") || s.HasColumn("pid") {
		t.Fatalf("columns = %v", s.ColumnNames())
	}
	if s.Key[0] != "patient_number" {
		t.Fatalf("key = %v", s.Key)
	}
	if err := v.Update(reldb.Row{reldb.I(0)}, map[string]reldb.Value{"mechanism": reldb.S("M")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newSrc.Get(reldb.Row{reldb.I(0)})
	if s, _ := r[3].Str(); s != "M" {
		t.Fatalf("mech = %q", s)
	}
}

func TestRenameRejectsNonInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := genRecords(rng, 2)
	l := Rename("v", map[string]string{"pid": "x", "med": "x"})
	if _, err := l.Get(src); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("want ErrSpecInvalid, got %v", err)
	}
}

func TestComposeSelectThenProject(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := genRecords(rng, 12)
	l := Compose(
		Select("a", reldb.Cmp("pid", reldb.OpLt, reldb.I(6))),
		Project("b", []string{"pid", "dose"}, nil),
	)
	v := mustGet(t, l, src)
	if v.Len() != 6 {
		t.Fatalf("rows = %d", v.Len())
	}
	if got := v.Schema().ColumnNames(); len(got) != 2 {
		t.Fatalf("columns = %v", got)
	}
	// An update through the composition lands in the source, leaving
	// filtered-out and hidden data intact.
	if err := v.Update(reldb.Row{reldb.I(2)}, map[string]reldb.Value{"dose": reldb.S("XX")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newSrc.Get(reldb.Row{reldb.I(2)})
	if s, _ := r[2].Str(); s != "XX" {
		t.Fatalf("dose = %q", s)
	}
	orig, _ := src.Get(reldb.Row{reldb.I(7)})
	now, _ := newSrc.Get(reldb.Row{reldb.I(7)})
	if !orig.Equal(now) {
		t.Fatal("row outside the selection was modified")
	}
}

func TestComposeVariadic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := genRecords(rng, 5)
	l := Compose(
		Select("a", reldb.True()),
		Project("b", []string{"pid", "med", "dose"}, nil),
		Rename("c", map[string]string{"dose": "dosage"}),
	)
	v := mustGet(t, l, src)
	if !v.Schema().HasColumn("dosage") {
		t.Fatalf("columns = %v", v.Schema().ColumnNames())
	}
	if err := CheckWellBehaved(l, src); err != nil {
		t.Fatal(err)
	}
}
