package bx

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medshare/internal/reldb"
)

// lensesUnderTest builds the lens menagerie used by the law properties.
// Every lens here must be well behaved for every source and every
// policy-admissible view edit.
func lensesUnderTest() []Lens {
	return []Lens{
		Project("p1", []string{"pid", "dose"}, nil).WithDelete(PolicyApply).
			WithInsert(PolicyApply, map[string]reldb.Value{
				"med": reldb.S("dmed"), "mech": reldb.S("dmech"),
			}),
		Project("p2", []string{"pid", "med", "dose", "mech"}, nil),
		Project("p3", []string{"med", "mech"}, []string{"med"}),
		Select("s1", reldb.Cmp("pid", reldb.OpLt, reldb.I(5))).WithDelete(PolicyApply).WithInsert(PolicyApply),
		Select("s2", reldb.Eq("med", reldb.S("med1"))),
		Rename("r1", map[string]string{"pid": "patient", "dose": "dosage"}),
		Compose(
			Select("c1a", reldb.Cmp("pid", reldb.OpGe, reldb.I(2))).WithDelete(PolicyApply).WithInsert(PolicyApply),
			Project("c1b", []string{"pid", "dose"}, nil).WithDelete(PolicyApply).
				WithInsert(PolicyApply, map[string]reldb.Value{
					"med": reldb.S("med2"), "mech": reldb.S("mech-of-med2"),
				}),
		),
		Compose(
			Project("c2a", []string{"pid", "med", "dose"}, nil),
			Rename("c2b", map[string]string{"med": "medication"}),
		),
		Join("j1", formulary()),
		Compose(
			Join("j2a", formulary()),
			Project("j2b", []string{"pid", "med", "dose", "class"}, nil),
		),
	}
}

// TestGetPutLawQuick: put(s, get(s)) == s for random sources and every
// lens under test.
func TestGetPutLawQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, rng.Intn(25))
		for _, l := range lensesUnderTest() {
			if err := CheckGetPut(l, src); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// editableCols are the view columns the random edit generator may touch:
// free attributes that no lens under test keys or selects on. Predicate
// and key columns are excluded because editing them is *not* an
// admissible view edit (selection lenses correctly reject rows escaping
// their own view) — that rejection path has its own directed tests.
var editableCols = map[string]bool{"dose": true, "dosage": true, "mech": true}

// randomViewEdit mutates a view in a policy-admissible way: field updates
// on free non-key columns always; row deletion only when the lens policy
// allows.
func randomViewEdit(rng *rand.Rand, view *reldb.Table, allowStructural bool) {
	rows := view.RowsCanonical()
	schema := view.Schema()
	nonKey := make([]string, 0)
	for _, c := range schema.Columns {
		if !schema.IsKeyColumn(c.Name) && c.Type == reldb.KindString && editableCols[c.Name] {
			nonKey = append(nonKey, c.Name)
		}
	}
	edits := 1 + rng.Intn(3)
	for e := 0; e < edits; e++ {
		if len(rows) == 0 {
			return
		}
		r := rows[rng.Intn(len(rows))]
		if !view.Has(view.KeyValues(r)) {
			continue
		}
		switch {
		case allowStructural && rng.Intn(4) == 0:
			_ = view.Delete(view.KeyValues(r))
		case len(nonKey) > 0:
			col := nonKey[rng.Intn(len(nonKey))]
			_ = view.Update(view.KeyValues(r), map[string]reldb.Value{
				col: reldb.S(fmt.Sprintf("edit%d", rng.Intn(100))),
			})
		}
	}
}

// TestPutGetLawQuick: get(put(s, v')) == v' for random sources and random
// admissible view edits.
func TestPutGetLawQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, 3+rng.Intn(20))
		for i, l := range lensesUnderTest() {
			view, err := l.Get(src)
			if err != nil {
				t.Logf("seed %d lens %d: get: %v", seed, i, err)
				return false
			}
			spec := l.Spec()
			structural := spec.OnDelete == PolicyApply ||
				(spec.Op == OpCompose && spec.Inner[1].OnDelete == PolicyApply)
			randomViewEdit(rng, view, structural)
			if err := CheckPutGet(l, src, view); err != nil {
				t.Logf("seed %d lens %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPutIdempotent: put(put(s,v), v) == put(s,v). Re-applying the same
// view must be a fixed point — this is what guarantees the Fig. 5 cascade
// terminates.
func TestPutIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, 3+rng.Intn(15))
		for _, l := range lensesUnderTest() {
			view, err := l.Get(src)
			if err != nil {
				return false
			}
			randomViewEdit(rng, view, false)
			s1, err := Put(l, src, view)
			if err != nil {
				return false
			}
			s2, err := Put(l, s1, view)
			if err != nil {
				return false
			}
			if !s1.Equal(s2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckWellBehavedOnMenagerie(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := genRecords(rng, 12)
	for i, l := range lensesUnderTest() {
		if err := CheckWellBehaved(l, src); err != nil {
			t.Errorf("lens %d: %v", i, err)
		}
	}
}

// brokenLens violates GetPut deliberately: its put corrupts a row the
// view edit never touched.
type brokenLens struct{ *ProjectLens }

func (b brokenLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	out, srcCs, err := b.ProjectLens.PutDelta(src, view, cs)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if rows := out.RowsCanonical(); len(rows) > 0 {
		_ = out.Update(out.KeyValues(rows[0]), map[string]reldb.Value{"dose": reldb.S("corrupted")})
	}
	return out, srcCs, nil
}

func TestLawCheckersCatchViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genRecords(rng, 5)
	bad := brokenLens{Project("v", []string{"pid", "med", "dose", "mech"}, nil)}
	if err := CheckGetPut(bad, src); err == nil {
		t.Fatal("broken lens passed GetPut")
	}
}
