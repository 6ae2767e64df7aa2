package reldb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// randValue draws a value across all kinds, biased toward collisions so
// the equality cases get exercised.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null()
	case 1:
		bs := make([]byte, rng.Intn(6))
		for i := range bs {
			bs[i] = byte(rng.Intn(4)) // includes NULs and control bytes
		}
		return S(string(bs))
	case 2:
		return I(int64(rng.Intn(7)) - 3) // negatives included
	case 3:
		return F(float64(rng.Intn(9)-4) / 2)
	case 4:
		return B(rng.Intn(2) == 0)
	default:
		return T(time.Unix(int64(rng.Intn(5))-2, int64(rng.Intn(3))*1000).UTC())
	}
}

// TestOrderedEncodingAgreesWithCompare: bytewise comparison of
// AppendOrdered encodings must equal Value.Compare — the property that
// makes the persistent storage's intrinsic iteration order the canonical
// key order.
func TestOrderedEncodingAgreesWithCompare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			a, b := randValue(rng), randValue(rng)
			want := a.Compare(b)
			got := bytes.Compare(a.AppendOrdered(nil), b.AppendOrdered(nil))
			if got != want {
				t.Logf("seed %d: enc order %d, Compare %d for %v vs %v", seed, got, want, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedEncodingPrefixFree: no value's ordered encoding may be a
// proper prefix of another's — concatenated multi-column keys would
// otherwise compare wrongly and secondary-index prefix scans would leak
// across groups.
func TestOrderedEncodingPrefixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]Value, 0, 400)
	for i := 0; i < 400; i++ {
		vals = append(vals, randValue(rng))
	}
	// Adversarial string pairs around the escape/terminator bytes.
	vals = append(vals, S(""), S("\x00"), S("\x00\x00"), S("\x00\x01"), S("\x00\xff"), S("a"), S("a\x00"), S("a\x00b"))
	for _, a := range vals {
		ea := a.AppendOrdered(nil)
		for _, b := range vals {
			if a.Equal(b) {
				continue
			}
			eb := b.AppendOrdered(nil)
			if len(ea) < len(eb) && bytes.Equal(ea, eb[:len(ea)]) {
				t.Fatalf("encoding of %v is a proper prefix of %v's", a, b)
			}
		}
	}
}

// TestOrderedEncodingStringEdgeCases pins the escape scheme: embedded
// NULs and prefix relationships must order exactly like the raw strings.
func TestOrderedEncodingStringEdgeCases(t *testing.T) {
	ss := []string{"", "\x00", "\x00\x00", "\x00a", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	sorted := append([]string(nil), ss...)
	sort.Strings(sorted)
	encs := make([][]byte, len(sorted))
	for i, s := range sorted {
		encs[i] = S(s).AppendOrdered(nil)
	}
	for i := 0; i+1 < len(encs); i++ {
		if bytes.Compare(encs[i], encs[i+1]) >= 0 {
			t.Fatalf("enc(%q) >= enc(%q)", sorted[i], sorted[i+1])
		}
	}
}

// TestOrderedEncodingFloatEdges pins float ordering across the sign.
func TestOrderedEncodingFloatEdges(t *testing.T) {
	fs := []float64{math.Inf(-1), -2.5, -0.0, 0.0, 0.25, 7, math.Inf(1)}
	for i := 0; i+1 < len(fs); i++ {
		a, b := F(fs[i]).AppendOrdered(nil), F(fs[i+1]).AppendOrdered(nil)
		if bytes.Compare(a, b) > 0 {
			t.Fatalf("enc(%v) > enc(%v)", fs[i], fs[i+1])
		}
	}
}

// TestRowsCanonicalMatchesExplicitSort: after a random mutation history,
// the intrinsic storage order must equal an explicit sort of the rows by
// key comparison — equivalent op sequences converge to identical
// canonical order and identical hashes regardless of history.
func TestRowsCanonicalMatchesExplicitSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := MustNewTable(patientSchema())
		for op := 0; op < 150; op++ {
			id := int64(rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1:
				_ = tbl.Upsert(Row{I(id), S(fmt.Sprintf("p%d", id)), Null(), I(int64(rng.Intn(90)))})
			case 2:
				_ = tbl.Delete(Row{I(id)})
			case 3:
				_ = tbl.Hash()
			}
		}
		rows := tbl.RowsCanonical()
		sorted := append([]Row(nil), rows...)
		sort.Slice(sorted, func(a, b int) bool {
			return sorted[a][0].Compare(sorted[b][0]) < 0
		})
		for i := range rows {
			if !rows[i].Equal(sorted[i]) {
				t.Logf("seed %d: canonical order diverges from Compare sort at %d", seed, i)
				return false
			}
		}
		// A replay of the final contents in random order must agree on
		// canonical order and hash.
		replay := MustNewTable(patientSchema())
		perm := rng.Perm(len(rows))
		for _, i := range perm {
			replay.MustInsert(rows[i])
		}
		if replay.Hash() != tbl.Hash() || !replay.Equal(tbl) {
			t.Logf("seed %d: replayed table disagrees", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTableDeltaSharesRows: after cloning a large table and editing k
// rows, the clone must share the untouched rows with the original by
// reference (structural sharing), and the original must be unchanged.
func TestTableDeltaSharesRows(t *testing.T) {
	base := bigPatients(t, 1000)
	derived := base.Clone()
	if err := derived.Update(Row{I(500)}, map[string]Value{"age": I(1)}); err != nil {
		t.Fatal(err)
	}
	if err := derived.Delete(Row{I(7)}); err != nil {
		t.Fatal(err)
	}
	baseRows, derivedRows := base.RowsCanonical(), derived.RowsCanonical()
	if len(baseRows) != 1000 || len(derivedRows) != 999 {
		t.Fatalf("lens: %d, %d", len(baseRows), len(derivedRows))
	}
	derivedPtrs := make(map[*Value]bool, len(derivedRows))
	for _, dr := range derivedRows {
		derivedPtrs[&dr[0]] = true
	}
	shared := 0
	for _, br := range baseRows {
		if derivedPtrs[&br[0]] {
			shared++
		}
	}
	if shared < 997 {
		t.Fatalf("only %d rows shared by reference after a 2-row delta", shared)
	}
}

// TestDiffOfDerivedIsMinimalAndOrdered: the structural diff must emit
// exactly the edits, in canonical key order.
func TestDiffOfDerivedIsMinimalAndOrdered(t *testing.T) {
	base := bigPatients(t, 500)
	derived := base.Clone()
	if err := derived.Update(Row{I(42)}, map[string]Value{"age": I(99)}); err != nil {
		t.Fatal(err)
	}
	if err := derived.Delete(Row{I(100)}); err != nil {
		t.Fatal(err)
	}
	derived.MustInsert(Row{I(9000), S("new"), Null(), I(1)})
	cs, err := base.Diff(derived)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Updated) != 1 || len(cs.Deleted) != 1 || len(cs.Inserted) != 1 {
		t.Fatalf("non-minimal diff: %d/%d/%d", len(cs.Updated), len(cs.Deleted), len(cs.Inserted))
	}
	if v, _ := cs.Updated[0].After[3].Int(); v != 99 {
		t.Fatal("wrong update emitted")
	}
	if err := base.ValidateDiff(derived, cs); err != nil {
		t.Fatal(err)
	}
	applied := base.Clone()
	if err := applied.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if applied.Hash() != derived.Hash() {
		t.Fatal("apply(diff) does not reproduce the target")
	}
}
