package bx

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medshare/internal/reldb"
)

// deltaFor computes the changeset an edited view represents, the way the
// sharing layer does before calling PutDelta.
func deltaFor(t *testing.T, view, edited *reldb.Table) reldb.Changeset {
	t.Helper()
	cs, err := view.Diff(edited)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	return cs
}

// TestPutDeltaMatchesPutQuick: for every lens in the menagerie and every
// random admissible edit, the delta path must agree exactly with the
// reference put — same result table, or the same refusal.
func TestPutDeltaMatchesPutQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, 3+rng.Intn(20))
		for i, l := range lensesUnderTest() {
			view, err := l.Get(src)
			if err != nil {
				t.Logf("seed %d lens %d: get: %v", seed, i, err)
				return false
			}
			edited := view.Clone()
			spec := l.Spec()
			structural := spec.OnDelete == PolicyApply ||
				(spec.Op == OpCompose && spec.Inner[1].OnDelete == PolicyApply)
			randomViewEdit(rng, edited, structural)
			if msg := checkPutDelta(l, src, view, edited); msg != "" {
				t.Logf("seed %d lens %d: %s", seed, i, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPutDeltaEmptyChangesetIsGetPut: an empty delta is the identity edit,
// so the result must equal the source (the GetPut law along the delta
// path).
func TestPutDeltaEmptyChangesetIsGetPut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := genRecords(rng, 12)
	for i, l := range lensesUnderTest() {
		view := mustGet(t, l, src)
		got, srcCs, err := PutDelta(l, src, view, reldb.Changeset{})
		if err != nil {
			t.Fatalf("lens %d: %v", i, err)
		}
		if !srcCs.Empty() {
			t.Errorf("lens %d: identity edit produced a source changeset", i)
		}
		if !got.Equal(src) {
			t.Errorf("lens %d: GetPut violated along delta path", i)
		}
	}
}

// TestPutDeltaStructuralEdits drives the insert and delete arms of the
// projection delta directly (the D13 share: apply policies, defaults for
// the hidden column).
func TestPutDeltaStructuralEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := genRecords(rng, 8)
	l := Project("v", []string{"pid", "dose"}, nil).WithDelete(PolicyApply).
		WithInsert(PolicyApply, map[string]reldb.Value{
			"med": reldb.S("dmed"), "mech": reldb.S("dmech"),
		})
	view := mustGet(t, l, src)
	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Delete(edited.KeyValues(rows[0])); err != nil {
		t.Fatal(err)
	}
	if err := edited.Insert(reldb.Row{reldb.I(100), reldb.S("newdose")}); err != nil {
		t.Fatal(err)
	}
	if err := edited.Update(edited.KeyValues(rows[1]), map[string]reldb.Value{"dose": reldb.S("changed")}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	if cs.Size() != 3 {
		t.Fatalf("changeset size = %d, want 3", cs.Size())
	}
	want, err := refPut(l, src, edited)
	if err != nil {
		t.Fatal(err)
	}
	got, srcCs, err := PutDelta(l, src, edited, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("delta result diverges from the reference put")
	}
	if srcCs.Size() != 3 {
		t.Fatalf("source changeset size = %d, want 3", srcCs.Size())
	}
	// The inserted source row must carry the defaults for hidden columns.
	nr, ok := got.Get(reldb.Row{reldb.I(100)})
	if !ok {
		t.Fatal("inserted row missing from source")
	}
	if s, _ := nr[1].Str(); s != "dmed" {
		t.Fatalf("hidden column did not default: %v", nr)
	}
}

// TestPutDeltaForbidsByPolicy: the delta path must refuse exactly what the
// full put refuses.
func TestPutDeltaForbidsByPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := genRecords(rng, 6)
	l := Project("v", []string{"pid", "dose"}, nil) // forbid policies
	view := mustGet(t, l, src)

	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Delete(edited.KeyValues(rows[0])); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	if _, _, err := PutDelta(l, src, edited, cs); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("delete through forbid lens: got %v, want ErrPutViolation", err)
	}

	edited = view.Clone()
	if err := edited.Insert(reldb.Row{reldb.I(200), reldb.S("d")}); err != nil {
		t.Fatal(err)
	}
	cs = deltaFor(t, view, edited)
	if _, _, err := PutDelta(l, src, edited, cs); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("insert through forbid lens: got %v, want ErrPutViolation", err)
	}
}

// TestPutDeltaSelectPredicateViolation: an update that moves a row outside
// its own selection must be refused on the delta path.
func TestPutDeltaSelectPredicateViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := genRecords(rng, 8)
	l := Select("v", reldb.Cmp("med", reldb.OpEq, reldb.S("med1"))).WithDelete(PolicyApply).WithInsert(PolicyApply)
	view := mustGet(t, l, src)
	if view.Len() == 0 {
		t.Skip("no med1 rows under this seed")
	}
	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Update(edited.KeyValues(rows[0]), map[string]reldb.Value{"med": reldb.S("med-escape")}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	if _, _, err := PutDelta(l, src, edited, cs); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("predicate escape: got %v, want ErrPutViolation", err)
	}
}

// TestSelectInsertCollidingWithInvisibleRow: inserting a view row whose
// key belongs to a source row *outside* the selection has no embedding —
// get would hide it again. The reference put and PutDelta must both
// reject it (silently dropping the insert would violate PutGet).
func TestSelectInsertCollidingWithInvisibleRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := genRecords(rng, 8)
	l := Select("v", reldb.Cmp("med", reldb.OpEq, reldb.S("med1"))).WithDelete(PolicyApply).WithInsert(PolicyApply)
	view := mustGet(t, l, src)

	// Find a source row invisible to the view and reuse its key.
	var hidden reldb.Row
	for _, r := range src.RowsCanonical() {
		if m, _ := r[1].Str(); m != "med1" {
			hidden = r
			break
		}
	}
	if hidden == nil {
		t.Skip("no invisible rows under this seed")
	}
	edited := view.Clone()
	colliding := hidden.Clone()
	colliding[1] = reldb.S("med1") // satisfies the predicate, same key
	if err := edited.Insert(colliding); err != nil {
		t.Fatal(err)
	}

	if _, err := refPut(l, src, edited); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("reference put: got %v, want ErrPutViolation", err)
	}
	cs := deltaFor(t, view, edited)
	if _, _, err := PutDelta(l, src, edited, cs); !errors.Is(err, ErrPutViolation) {
		t.Fatalf("PutDelta: got %v, want ErrPutViolation", err)
	}
}

// TestPutDeltaRekeyedProjectionDirect: the medication-keyed projection
// (the paper's D23/D32) addresses the *group* of source rows sharing the
// view-key tuple through the source's secondary index — no full put, no
// diff. The delta path must agree with the full put, update every row of
// the group, and report a source changeset that replays.
func TestPutDeltaRekeyedProjectionDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := genRecords(rng, 30) // ~6 medications → multi-row groups
	l := Project("v", []string{"med", "mech"}, []string{"med"})
	view := mustGet(t, l, src)
	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Update(edited.KeyValues(rows[0]), map[string]reldb.Value{"mech": reldb.S("mech-new")}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	want, err := refPut(l, src, edited)
	if err != nil {
		t.Fatal(err)
	}
	got, srcCs, err := PutDelta(l, src, edited, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("re-keyed delta result diverges from the reference put")
	}
	// The one-view-row edit must have touched every source row of the
	// medication group, and only those.
	med, _ := rows[0][0].Str()
	groupSize := 0
	_ = src.Scan(func(r reldb.Row) (bool, error) {
		if m, _ := r[1].Str(); m == med {
			groupSize++
		}
		return true, nil
	})
	if len(srcCs.Updated) != groupSize || groupSize == 0 {
		t.Fatalf("source changeset touched %d rows, group has %d", len(srcCs.Updated), groupSize)
	}
	replayed := src.Clone()
	if err := replayed.Apply(srcCs); err != nil {
		t.Fatal(err)
	}
	if !replayed.Equal(got) {
		t.Fatal("re-keyed source changeset does not replay")
	}
}

// TestPutDeltaRekeyedStructural drives the delete and insert arms of the
// re-keyed projection delta: deleting a view row removes the whole
// source group; inserting creates one defaulted source row.
func TestPutDeltaRekeyedStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := genRecords(rng, 24)
	l := Project("v", []string{"med", "mech"}, []string{"med"}).
		WithDelete(PolicyApply).
		WithInsert(PolicyApply, map[string]reldb.Value{
			"pid": reldb.I(999), "dose": reldb.S("ddose"),
		})
	view := mustGet(t, l, src)
	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Delete(edited.KeyValues(rows[0])); err != nil {
		t.Fatal(err)
	}
	if err := edited.Insert(reldb.Row{reldb.S("medX"), reldb.S("mech-of-medX")}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	want, err := refPut(l, src, edited)
	if err != nil {
		t.Fatal(err)
	}
	got, srcCs, err := PutDelta(l, src, edited, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("re-keyed structural delta diverges from the reference put")
	}
	replayed := src.Clone()
	if err := replayed.Apply(srcCs); err != nil {
		t.Fatal(err)
	}
	if !replayed.Equal(got) {
		t.Fatal("re-keyed structural changeset does not replay")
	}
}

// TestPutDeltaRekeyedSourceKeyEdit: a re-keyed view that projects the
// *source* key column. Editing it through the view moves the source row
// to a new primary key — the delta path must mirror the reference put
// (delete + insert), not leave a stale duplicate behind.
func TestPutDeltaRekeyedSourceKeyEdit(t *testing.T) {
	src := reldb.MustNewTable(recordsSchema())
	for i := 0; i < 6; i++ {
		src.MustInsert(reldb.Row{
			reldb.I(int64(i)), reldb.S(fmt.Sprintf("med%d", i)),
			reldb.S("d"), reldb.S(fmt.Sprintf("mech-of-med%d", i)),
		})
	}
	l := Project("v", []string{"pid", "med"}, []string{"med"})
	view := mustGet(t, l, src)
	edited := view.Clone()
	if err := edited.Update(reldb.Row{reldb.S("med3")}, map[string]reldb.Value{"pid": reldb.I(77)}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	want, err := refPut(l, src, edited)
	if err != nil {
		t.Fatal(err)
	}
	got, srcCs, err := PutDelta(l, src, edited, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("source-key edit diverges from the reference put")
	}
	if got.Len() != src.Len() {
		t.Fatalf("row count changed: %d -> %d (stale duplicate?)", src.Len(), got.Len())
	}
	replayed := src.Clone()
	if err := replayed.Apply(srcCs); err != nil {
		t.Fatal(err)
	}
	if !replayed.Equal(got) {
		t.Fatal("source-key edit changeset does not replay")
	}
}

// TestComposePutDeltaMemo drives a multi-step cascade through one
// ComposeLens instance — the per-share shape in the sharing layer — and
// checks every step agrees with the stateless reference put, including
// after the source changes behind the lens's back (memo invalidation by
// hash).
func TestComposePutDeltaMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := genRecords(rng, 20)
	cl := Compose(
		Select("ca", reldb.Cmp("pid", reldb.OpGe, reldb.I(2))).WithDelete(PolicyApply).WithInsert(PolicyApply),
		Project("cb", []string{"pid", "dose"}, nil),
	)
	cur := src
	for step := 0; step < 5; step++ {
		view := mustGet(t, cl, cur)
		edited := view.Clone()
		rows := edited.RowsCanonical()
		r := rows[step%len(rows)]
		if err := edited.Update(edited.KeyValues(r), map[string]reldb.Value{"dose": reldb.S(fmt.Sprintf("dose-step%d", step))}); err != nil {
			t.Fatal(err)
		}
		cs := deltaFor(t, view, edited)
		want, err := refPut(cl, cur, edited)
		if err != nil {
			t.Fatal(err)
		}
		got, srcCs, err := PutDelta(cl, cur, edited, cs)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("step %d: memoized compose delta diverges from the reference put", step)
		}
		replayed := cur.Clone()
		if err := replayed.Apply(srcCs); err != nil {
			t.Fatal(err)
		}
		if !replayed.Equal(got) {
			t.Fatalf("step %d: compose changeset does not replay", step)
		}
		cur = got
	}
	// Mutate the source outside the lens (an out-of-band UpdateSource):
	// the memo's hash key must miss and the next delta still agree.
	out := cur.Clone()
	if err := out.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"dose": reldb.S("oob")}); err != nil {
		t.Fatal(err)
	}
	view := mustGet(t, cl, out)
	edited := view.Clone()
	rows := edited.RowsCanonical()
	if err := edited.Update(edited.KeyValues(rows[0]), map[string]reldb.Value{"dose": reldb.S("post-oob")}); err != nil {
		t.Fatal(err)
	}
	cs := deltaFor(t, view, edited)
	want, err := refPut(cl, out, edited)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := PutDelta(cl, out, edited, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("stale memo survived an out-of-band source change")
	}
}

// TestPutMatchesReference: the whole-view put (Put, the delta put of a
// diff against the lens's own get) must agree with the reference put for
// every lens kind including the join, and the delta path's source
// changeset must replay src into it.
func TestPutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := genRecords(rng, 10)
	lenses := []Lens{
		Project("d", []string{"pid", "dose"}, nil).WithDelete(PolicyApply).
			WithInsert(PolicyApply, map[string]reldb.Value{
				"med": reldb.S("dmed"), "mech": reldb.S("dmech"),
			}), // view key = source key
		Project("r", []string{"med", "mech"}, []string{"med"}), // rekeyed
		Rename("n", map[string]string{"dose": "dosage"}),
		Join("j", formulary()),
	}
	for i, l := range lenses {
		view := mustGet(t, l, src)
		edited := view.Clone()
		randomViewEdit(rng, edited, false)
		want, err := refPut(l, src, edited)
		if err != nil {
			t.Fatalf("lens %d: reference put: %v", i, err)
		}
		got, err := Put(l, src, edited)
		if err != nil {
			t.Fatalf("lens %d: put: %v", i, err)
		}
		if !want.Equal(got) {
			t.Fatalf("lens %d: Put diverges from the reference put", i)
		}
		if msg := checkPutDelta(l, src, view, edited); msg != "" {
			t.Fatalf("lens %d: %s", i, msg)
		}
	}
}

// TestJoinPutDeltaEquivalenceQuick is the join lens's delta property
// test: PutDelta agrees with the reference put over randomized
// changesets. Admissible edits (source columns, and join-column
// re-points that carry the new reference values) agree on the result
// table, the reported source changeset, and PutGet; inadmissible edits
// — reference-column forgeries, join keys with no reference match,
// view-side inserts and deletes — are rejected by BOTH.
func TestJoinPutDeltaEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, 3+rng.Intn(20))
		l := Join("v", formulary())
		view, err := l.Get(src)
		if err != nil {
			t.Logf("seed %d: get: %v", seed, err)
			return false
		}
		edited := view.Clone()
		rows := edited.RowsCanonical()
		for e := 0; e < 1+rng.Intn(4); e++ {
			if len(rows) == 0 {
				break
			}
			key := edited.KeyValues(rows[rng.Intn(len(rows))])
			if !edited.Has(key) {
				continue
			}
			var err error
			switch rng.Intn(7) {
			case 0: // source-column edit: admissible
				err = edited.Update(key, map[string]reldb.Value{"dose": reldb.S(fmt.Sprintf("d%d", rng.Intn(50)))})
			case 1: // source-column edit: admissible
				err = edited.Update(key, map[string]reldb.Value{"mech": reldb.S(fmt.Sprintf("m%d", rng.Intn(50)))})
			case 2: // reference-column forgery: rejected
				err = edited.Update(key, map[string]reldb.Value{"class": reldb.S("forged")})
			case 3: // join-column re-point WITH the new reference values: admissible
				med := medName(rng.Intn(6))
				err = edited.Update(key, map[string]reldb.Value{
					"med": reldb.S(med), "class": reldb.S("class" + med),
				})
			case 4: // join-column edit with a stale reference value: rejected
				// (unless the draw happens to keep the row's own med).
				err = edited.Update(key, map[string]reldb.Value{"med": reldb.S(medName(rng.Intn(6)))})
			case 5: // join key with no reference match: rejected
				err = edited.Update(key, map[string]reldb.Value{"med": reldb.S("ghost-med")})
			case 6: // structural edits: rejected
				if rng.Intn(2) == 0 {
					err = edited.Delete(key)
				} else {
					err = edited.Insert(reldb.Row{
						reldb.I(int64(1000 + e)), reldb.S("med1"), reldb.S("d"),
						reldb.S("m"), reldb.S("classmed1"),
					})
				}
			}
			if err != nil {
				t.Logf("seed %d: edit: %v", seed, err)
				return false
			}
		}
		if msg := checkPutDelta(l, src, view, edited); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLawsHoldOnCOWClones: the law checkers must pass on tables that
// share copy-on-write storage with a mutated sibling — i.e. snapshots are
// genuinely independent relations.
func TestLawsHoldOnCOWClones(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := genRecords(rng, 15)
	snapshot := src.Clone()
	// Mutate the original after cloning; the snapshot must be unaffected.
	rows := src.RowsCanonical()
	for i := 0; i < 3 && i < len(rows); i++ {
		if err := src.Update(src.KeyValues(rows[i]), map[string]reldb.Value{
			"dose": reldb.S(fmt.Sprintf("mutated%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if snapshot.Equal(src) {
		t.Fatal("snapshot saw the original's mutation")
	}
	for i, l := range lensesUnderTest() {
		if err := CheckWellBehaved(l, snapshot); err != nil {
			t.Errorf("lens %d on snapshot: %v", i, err)
		}
		if err := CheckWellBehaved(l, src); err != nil {
			t.Errorf("lens %d on mutated original: %v", i, err)
		}
	}
}
