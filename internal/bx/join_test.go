package bx

import (
	"errors"
	"math/rand"
	"testing"

	"medshare/internal/reldb"
)

// formulary builds a reference table med -> (mech, class).
func formulary() *reldb.Table {
	t := reldb.MustNewTable(reldb.Schema{
		Name: "formulary",
		Columns: []reldb.Column{
			{Name: "med", Type: reldb.KindString},
			{Name: "class", Type: reldb.KindString},
		},
		Key: []string{"med"},
	})
	for i := 0; i < 6; i++ {
		t.MustInsert(reldb.Row{reldb.S(medName(i)), reldb.S("class" + medName(i))})
	}
	return t
}

func medName(i int) string { return "med" + string(rune('0'+i)) }

func TestJoinGetEnriches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := genRecords(rng, 10)
	l := Join("v", formulary())
	v := mustGet(t, l, src)
	if v.Len() != src.Len() {
		t.Fatalf("rows = %d, want %d", v.Len(), src.Len())
	}
	s := v.Schema()
	if !s.HasColumn("class") {
		t.Fatalf("columns = %v", s.ColumnNames())
	}
	// The view key stays the source key.
	if len(s.Key) != 1 || s.Key[0] != "pid" {
		t.Fatalf("key = %v", s.Key)
	}
}

func TestJoinGetRejectsMissingReference(t *testing.T) {
	src := reldb.MustNewTable(recordsSchema())
	src.MustInsert(reldb.Row{reldb.I(1), reldb.S("ghost-med"), reldb.S("d"), reldb.S("m")})
	l := Join("v", formulary())
	if _, err := l.Get(src); err == nil {
		t.Fatal("row without reference match must not silently vanish")
	}
}

func TestJoinPutSourceEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := genRecords(rng, 8)
	l := Join("v", formulary())
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"dose": reldb.S("JOINED")}); err != nil {
		t.Fatal(err)
	}
	newSrc, err := Put(l, src, v)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newSrc.Get(reldb.Row{reldb.I(3)})
	if s, _ := r[2].Str(); s != "JOINED" {
		t.Fatalf("dose = %q", s)
	}
}

func TestJoinPutRejectsReferenceEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := genRecords(rng, 8)
	l := Join("v", formulary())
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"class": reldb.S("forged")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("want ErrPutViolation, got %v", err)
	}
}

func TestJoinPutRejectsStructuralEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := genRecords(rng, 8)
	l := Join("v", formulary())
	v := mustGet(t, l, src)
	rows := v.RowsCanonical()
	if err := v.Delete(v.KeyValues(rows[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(l, src, v); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("delete: want ErrPutViolation, got %v", err)
	}
}

func TestJoinWellBehaved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := genRecords(rng, 12)
	l := Join("v", formulary())
	if err := CheckWellBehaved(l, src); err != nil {
		t.Fatal(err)
	}
	// PutGet under an admissible (source-column) edit.
	v := mustGet(t, l, src)
	if err := v.Update(reldb.Row{reldb.I(0)}, map[string]reldb.Value{"mech": reldb.S("edited")}); err != nil {
		t.Fatal(err)
	}
	if err := CheckPutGet(l, src, v); err != nil {
		t.Fatal(err)
	}
}

func TestJoinSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := genRecords(rng, 6)
	l := Join("v", formulary())
	raw, err := l.Spec().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustGet(t, l, src)
	v2 := mustGet(t, back, src)
	if v1.Hash() != v2.Hash() {
		t.Fatal("rebuilt join lens derives a different view")
	}
}

func TestJoinComposedWithProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genRecords(rng, 10)
	l := Compose(
		Join("j", formulary()),
		Project("v", []string{"pid", "med", "class"}, nil),
	)
	v := mustGet(t, l, src)
	if !v.Schema().HasColumn("class") || v.Schema().HasColumn("dose") {
		t.Fatalf("columns = %v", v.Schema().ColumnNames())
	}
	if err := CheckWellBehaved(l, src); err != nil {
		t.Fatal(err)
	}
	// Editing the source column "med" through the composition must work
	// only if the new med exists in the reference (otherwise get fails on
	// the way back) — use an existing one.
	if err := v.Update(reldb.Row{reldb.I(0)}, map[string]reldb.Value{"med": reldb.S("med5")}); err != nil {
		t.Fatal(err)
	}
	// A med rename changes the joined class too; the inner projection
	// does not carry "class" back, so put re-derives it. PutGet may fail
	// if the class column in the view disagrees; verify put errors or the
	// result re-joins consistently.
	newSrc, err := Put(l, src, v)
	if err != nil {
		// Acceptable: the stale class value is a reference edit.
		return
	}
	got, err := l.Get(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := got.Get(reldb.Row{reldb.I(0)})
	cls := r[got.Schema().ColumnIndex("class")]
	if s, _ := cls.Str(); s != "classmed5" {
		t.Fatalf("class after rename = %q", s)
	}
}
