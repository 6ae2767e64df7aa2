package bx

import (
	"errors"
	"math/rand"
	"testing"

	"medshare/internal/reldb"
)

func TestSpecRoundTripPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := genRecords(rng, 10)
	for i, l := range lensesUnderTest() {
		raw, err := l.Spec().Marshal()
		if err != nil {
			t.Fatalf("lens %d: marshal: %v", i, err)
		}
		spec, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("lens %d: parse: %v", i, err)
		}
		back, err := spec.Build()
		if err != nil {
			t.Fatalf("lens %d: build: %v", i, err)
		}
		v1, err1 := l.Get(src)
		v2, err2 := back.Get(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("lens %d: get error divergence: %v vs %v", i, err1, err2)
		}
		if err1 == nil && v1.Hash() != v2.Hash() {
			t.Fatalf("lens %d: rebuilt lens produces a different view", i)
		}
		// Put semantics preserved too: identical edit, identical result.
		if err1 == nil && v1.Len() > 0 {
			rows := v1.RowsCanonical()
			key := v1.KeyValues(rows[0])
			for _, col := range []string{"dose", "dosage", "mech"} {
				if v1.Schema().HasColumn(col) {
					_ = v1.Update(key, map[string]reldb.Value{col: reldb.S("EDIT")})
					_ = v2.Update(key, map[string]reldb.Value{col: reldb.S("EDIT")})
					break
				}
			}
			s1, e1 := Put(l, src, v1)
			s2, e2 := Put(back, src, v2)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("lens %d: put error divergence: %v vs %v", i, e1, e2)
			}
			if e1 == nil && s1.Hash() != s2.Hash() {
				t.Fatalf("lens %d: rebuilt lens puts differently", i)
			}
		}
	}
}

func TestSpecBuildRejectsMalformed(t *testing.T) {
	bad := []Spec{
		{Op: "alien"},
		{Op: OpProject},               // no columns
		{Op: OpSelect, ViewName: "v"}, // no predicate
		{Op: OpRename, ViewName: "v"}, // no mapping
		{Op: OpCompose, Inner: []Spec{{Op: OpProject, Cols: []string{"a"}}}}, // wrong arity
		{Op: OpSelect, Pred: []byte(`{"op":"alien"}`)},
	}
	for i, s := range bad {
		if _, err := s.Build(); !errors.Is(err, ErrSpecInvalid) {
			t.Errorf("spec %d: want ErrSpecInvalid, got %v", i, err)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	if _, err := ParseSpec([]byte("{{")); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("want ErrSpecInvalid, got %v", err)
	}
}

func TestFinalViewName(t *testing.T) {
	l := Compose(
		Select("mid", reldb.True()),
		Project("final", []string{"pid"}, nil),
	)
	if got := l.Spec().FinalViewName(); got != "final" {
		t.Fatalf("FinalViewName = %q", got)
	}
	if got := Project("only", []string{"pid"}, nil).Spec().FinalViewName(); got != "only" {
		t.Fatalf("FinalViewName = %q", got)
	}
}

func TestOverlapsProjections(t *testing.T) {
	s := recordsSchema()
	// D31-style: pid, med, dose. D32-style: med, mech.
	a := Project("d31", []string{"pid", "med", "dose"}, nil)
	b := Project("d32", []string{"med", "mech"}, []string{"med"})

	// A mechanism-only change through b does not affect a.
	hit, err := Overlaps(s, b, []string{"mech"}, a)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("mech change should not overlap d31")
	}
	// A medication change through b does affect a.
	hit, err = Overlaps(s, b, []string{"med"}, a)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("med change should overlap d31")
	}
	// Unknown changed columns (nil) are conservative: all written.
	hit, err = Overlaps(s, b, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("nil changed cols should be conservative")
	}
}

func TestOverlapsDisjointViews(t *testing.T) {
	s := recordsSchema()
	a := Project("a", []string{"pid", "dose"}, nil)
	b := Project("b", []string{"med", "mech"}, []string{"med"})
	hit, err := Overlaps(s, a, []string{"dose"}, b)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("disjoint column sets should not overlap")
	}
}

func TestOverlapsThroughRename(t *testing.T) {
	s := recordsSchema()
	a := Compose(
		Project("a1", []string{"pid", "dose"}, nil),
		Rename("a2", map[string]string{"dose": "dosage"}),
	)
	b := Project("b", []string{"pid", "dose"}, nil)
	// A "dosage" change in a's view is a "dose" change at the source.
	hit, err := Overlaps(s, a, []string{"dosage"}, b)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("rename must map changed view columns back to source columns")
	}
}

func TestSharedSourceColumns(t *testing.T) {
	s := recordsSchema()
	a := Project("a", []string{"pid", "med", "dose"}, nil)
	b := Project("b", []string{"med", "mech"}, []string{"med"})
	got, err := SharedSourceColumns(s, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "med" {
		t.Fatalf("shared = %v", got)
	}
}

func TestSourceColumnsWrittenSubset(t *testing.T) {
	l := Project("v", []string{"pid", "med", "dose"}, nil)
	got, err := l.SourceColumnsWritten(recordsSchema(), []string{"dose"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "dose" {
		t.Fatalf("written = %v", got)
	}
	// Columns not in the lens are ignored.
	got, err = l.SourceColumnsWritten(recordsSchema(), []string{"mech"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("written = %v", got)
	}
}
