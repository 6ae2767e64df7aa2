package bx

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medshare/internal/reldb"
)

// getDeltaLenses is the law menagerie plus a composition whose outer lens
// is re-keyed, so an induced intermediate changeset regroups too.
func getDeltaLenses() []Lens {
	return append(lensesUnderTest(),
		Compose(
			Select("c3a", reldb.Cmp("pid", reldb.OpGe, reldb.I(2))),
			Project("c3b", []string{"med", "mech"}, []string{"med"}),
		),
	)
}

// randomSourceEdit applies 1-4 random edits to a records table: visible
// and hidden column updates, a medication switch (the row changes group
// in a re-keyed view and may enter or leave a selection), a mechanism
// edit on one row only (breaks mech = f(med): the re-keyed projection
// stops being functional) or on a whole group, a medication with no
// reference row (breaks the join), inserts, deletes, a primary-key move,
// and the deletion of a whole medication group.
func randomSourceEdit(rng *rand.Rand, src *reldb.Table, nextPID *int64) {
	set := func(key reldb.Row, col, val string) {
		if err := src.Update(key, map[string]reldb.Value{col: reldb.S(val)}); err != nil {
			panic(err)
		}
	}
	for e := 0; e < 1+rng.Intn(4); e++ {
		rows := src.RowsCanonical()
		if len(rows) == 0 {
			return
		}
		r := rows[rng.Intn(len(rows))]
		key := src.KeyValues(r)
		med, _ := r[1].Str()
		switch rng.Intn(12) {
		case 0, 1:
			set(key, "dose", fmt.Sprintf("dose%d", rng.Intn(100)))
		case 2, 3:
			m := medName(rng.Intn(6))
			set(key, "med", m)
			set(key, "mech", "mech-of-"+m)
		case 4:
			set(key, "mech", fmt.Sprintf("odd%d", rng.Intn(100)))
		case 5:
			mech := fmt.Sprintf("mech%d", rng.Intn(100))
			for _, g := range rows {
				if m, _ := g[1].Str(); m == med {
					set(src.KeyValues(g), "mech", mech)
				}
			}
		case 6:
			if rng.Intn(4) == 0 {
				set(key, "med", "ghost-med")
			}
		case 7, 8:
			m := medName(rng.Intn(6))
			src.MustInsert(reldb.Row{reldb.I(*nextPID), reldb.S(m), reldb.S("dose-new"), reldb.S("mech-of-" + m)})
			*nextPID++
		case 9:
			_ = src.Delete(key)
		case 10:
			// Key move: small pids so rows cross the pid < 5 / pid >= 2
			// selection bounds in both directions.
			moved := r.Clone()
			moved[0] = reldb.I(int64(rng.Intn(8)))
			if !src.Has(src.KeyValues(moved)) {
				_ = src.Delete(key)
				src.MustInsert(moved)
			}
		case 11:
			for _, g := range rows {
				if m, _ := g[1].Str(); m == med {
					_ = src.Delete(src.KeyValues(g))
				}
			}
		}
	}
}

func sameChangeset(a, b reldb.Changeset) bool {
	if len(a.Inserted) != len(b.Inserted) || len(a.Deleted) != len(b.Deleted) || len(a.Updated) != len(b.Updated) {
		return false
	}
	for i := range a.Inserted {
		if !a.Inserted[i].Equal(b.Inserted[i]) {
			return false
		}
	}
	for i := range a.Deleted {
		if !a.Deleted[i].Equal(b.Deleted[i]) {
			return false
		}
	}
	for i := range a.Updated {
		if !a.Updated[i].Before.Equal(b.Updated[i].Before) || !a.Updated[i].After.Equal(b.Updated[i].After) {
			return false
		}
	}
	return true
}

// TestGetDeltaMatchesGetQuick: for every lens and every random source
// edit the forward delta path agrees exactly with a reseeded full get —
// same rows, same Merkle hash (so the same tree shape under the share's
// seed), and the minimal changeset the old view's Diff would report — or
// both refuse.
func TestGetDeltaMatchesGetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		oldSrc := genRecords(rng, 3+rng.Intn(20))
		var secret []byte
		if rng.Intn(4) > 0 {
			secret = []byte(fmt.Sprintf("share-secret-%d", seed))
		}
		nextPID := int64(100)
		for i, l := range getDeltaLenses() {
			got0, err := l.Get(oldSrc)
			if err != nil {
				t.Logf("seed %d lens %d: get: %v", seed, i, err)
				return false
			}
			oldView := got0.Reseeded(secret)
			oldHash := oldView.Hash()

			newSrc := oldSrc.Clone()
			randomSourceEdit(rng, newSrc, &nextPID)
			if rng.Intn(3) == 0 {
				// No shared lineage: the result depends on contents only.
				fresh := reldb.MustNewTable(recordsSchema())
				for _, r := range newSrc.RowsCanonical() {
					fresh.MustInsert(r)
				}
				newSrc = fresh
			}
			srcCs, err := oldSrc.Diff(newSrc)
			if err != nil {
				t.Logf("seed %d lens %d: diff: %v", seed, i, err)
				return false
			}

			want, wantErr := l.Get(newSrc)
			got, cs, gotErr := GetDelta(l, oldSrc, newSrc, oldView, srcCs)
			if (wantErr == nil) != (gotErr == nil) {
				t.Logf("seed %d lens %d: get err %v vs delta err %v", seed, i, wantErr, gotErr)
				return false
			}
			if oldView.Hash() != oldHash {
				t.Logf("seed %d lens %d: GetDelta mutated the old view", seed, i)
				return false
			}
			if wantErr != nil {
				continue
			}
			want = want.Reseeded(secret)
			if !got.Equal(want) {
				t.Logf("seed %d lens %d: delta view diverges from get\n got %v\nwant %v", seed, i, got.RowsCanonical(), want.RowsCanonical())
				return false
			}
			if got.Hash() != want.Hash() {
				t.Logf("seed %d lens %d: delta view hashes differently from the reseeded get", seed, i)
				return false
			}
			wantCs, err := oldView.Diff(want)
			if err != nil || !sameChangeset(cs, wantCs) {
				t.Logf("seed %d lens %d: changeset %+v, want %+v (%v)", seed, i, cs, wantCs, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGetDeltaOfPutDeltaQuick is PutGet in delta form: the source
// changeset PutDelta reports for a view edit, pushed forward again, gives
// back the edited view and the view changeset it started from.
func TestGetDeltaOfPutDeltaQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genRecords(rng, 3+rng.Intn(20))
		for i, l := range getDeltaLenses() {
			v0, err := l.Get(src)
			if err != nil {
				t.Logf("seed %d lens %d: get: %v", seed, i, err)
				return false
			}
			view := v0.Reseeded([]byte("share-secret"))
			edited := view.Clone()
			spec := l.Spec()
			structural := spec.OnDelete == PolicyApply ||
				(spec.Op == OpCompose && spec.Inner[1].OnDelete == PolicyApply)
			randomViewEdit(rng, edited, structural)
			cs := deltaFor(t, view, edited)
			newSrc, srcCs, err := PutDelta(l, src, edited, cs)
			if err != nil {
				continue // inadmissible edit; TestPutDeltaMatchesPutQuick covers the refusal
			}
			got, gotCs, err := GetDelta(l, src, newSrc, view, srcCs)
			if err != nil {
				t.Logf("seed %d lens %d: get delta: %v", seed, i, err)
				return false
			}
			if !got.Equal(edited) || got.Hash() != edited.Hash() || !sameChangeset(gotCs, cs) {
				t.Logf("seed %d lens %d: delta PutGet fails: changeset %+v, want %+v", seed, i, gotCs, cs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGetDeltaRekeyedGroups drives the re-keyed projection's group arms
// directly: a group emptied by deletes leaves the view, a row joining a
// group adds nothing, and a group whose rows disagree is refused with the
// error Get gives.
func TestGetDeltaRekeyedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	oldSrc := genRecords(rng, 30)
	l := Project("v", []string{"med", "mech"}, []string{"med"})
	oldView := mustGet(t, l, oldSrc)

	newSrc := oldSrc.Clone()
	var kept reldb.Row
	for _, r := range oldSrc.RowsCanonical() {
		if m, _ := r[1].Str(); m == "med0" {
			_ = newSrc.Delete(newSrc.KeyValues(r))
		} else if kept == nil {
			kept = r
		}
	}
	newSrc.MustInsert(reldb.Row{reldb.I(500), kept[1], reldb.S("other-dose"), kept[3]})
	srcCs, _ := oldSrc.Diff(newSrc)
	got, cs, err := GetDelta(l, oldSrc, newSrc, oldView, srcCs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Has(reldb.Row{reldb.S("med0")}) || len(cs.Deleted) != 1 || cs.Size() != 1 {
		t.Fatalf("emptied group: changeset %+v", cs)
	}
	if !got.Equal(mustGet(t, l, newSrc)) {
		t.Fatal("delta view diverges from get")
	}

	broken := newSrc.Clone()
	if err := broken.Update(reldb.Row{reldb.I(500)}, map[string]reldb.Value{"mech": reldb.S("disagrees")}); err != nil {
		t.Fatal(err)
	}
	srcCs, _ = newSrc.Diff(broken)
	_, getErr := l.Get(broken)
	_, _, deltaErr := GetDelta(l, newSrc, broken, got, srcCs)
	if getErr == nil || deltaErr == nil || getErr.Error() != deltaErr.Error() {
		t.Fatalf("non-functional projection: get %v, delta %v", getErr, deltaErr)
	}
}

// TestGetDeltaSharesStructure: the point of building on the old view's
// tree — after a one-row source edit the new view's hash state is warm
// except for one path, and its diff against the old view is structural.
// Checked through the version identity instead of timing: a source edit
// the view does not see returns the old view's very tree.
func TestGetDeltaSharesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	oldSrc := genRecords(rng, 200)
	l := Project("v", []string{"pid", "dose"}, nil)
	oldView := mustGet(t, l, oldSrc).Reseeded([]byte("s"))
	newSrc := oldSrc.Clone()
	if err := newSrc.Update(reldb.Row{reldb.I(7)}, map[string]reldb.Value{"mech": reldb.S("hidden")}); err != nil {
		t.Fatal(err)
	}
	srcCs, _ := oldSrc.Diff(newSrc)
	got, cs, err := GetDelta(l, oldSrc, newSrc, oldView, srcCs)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() || !got.SameVersion(oldView) {
		t.Fatalf("hidden-column edit rebuilt the view: changeset %+v", cs)
	}
	if string(got.PrioritySecret()) != "s" {
		t.Fatal("delta view lost the share's priority seed")
	}
}
