package reldb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPatients(t *testing.T, rows ...Row) *Table {
	t.Helper()
	tbl, err := NewTable(patientSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func alice() Row { return Row{I(1), S("alice"), S("Osaka"), I(30)} }
func bob() Row   { return Row{I(2), S("bob"), Null(), I(41)} }

func TestInsertGet(t *testing.T) {
	tbl := newPatients(t, alice(), bob())
	if tbl.Len() != 2 {
		t.Fatalf("len = %d", tbl.Len())
	}
	got, ok := tbl.Get(Row{I(1)})
	if !ok || !got.Equal(alice()) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := tbl.Get(Row{I(99)}); ok {
		t.Fatal("missing key found")
	}
	if !tbl.Has(Row{I(2)}) || tbl.Has(Row{I(3)}) {
		t.Fatal("Has wrong")
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	tbl := newPatients(t, alice())
	err := tbl.Insert(Row{I(1), S("impostor"), Null(), I(9)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
}

func TestInsertTypeChecked(t *testing.T) {
	tbl := newPatients(t)
	if err := tbl.Insert(Row{S("1"), S("x"), Null(), I(1)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

func TestInsertClonesRow(t *testing.T) {
	tbl := newPatients(t)
	r := alice()
	if err := tbl.Insert(r); err != nil {
		t.Fatal(err)
	}
	r[1] = S("mutated")
	got, _ := tbl.Get(Row{I(1)})
	if s, _ := got[1].Str(); s != "alice" {
		t.Fatal("table aliases caller's row")
	}
}

func TestUpdate(t *testing.T) {
	tbl := newPatients(t, alice())
	if err := tbl.Update(Row{I(1)}, map[string]Value{"age": I(31)}); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Get(Row{I(1)})
	if v, _ := got[3].Int(); v != 31 {
		t.Fatalf("age = %d", v)
	}
}

func TestUpdateKeyImmutable(t *testing.T) {
	tbl := newPatients(t, alice())
	err := tbl.Update(Row{I(1)}, map[string]Value{"id": I(7)})
	if !errors.Is(err, ErrKeyImmutable) {
		t.Fatalf("want ErrKeyImmutable, got %v", err)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	tbl := newPatients(t)
	err := tbl.Update(Row{I(1)}, map[string]Value{"age": I(1)})
	if !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
}

func TestUpdateUnknownColumn(t *testing.T) {
	tbl := newPatients(t, alice())
	err := tbl.Update(Row{I(1)}, map[string]Value{"ghost": I(1)})
	if !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

func TestUpdateTypeChecked(t *testing.T) {
	tbl := newPatients(t, alice())
	err := tbl.Update(Row{I(1)}, map[string]Value{"age": S("old")})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

func TestDeleteAndSwapIndex(t *testing.T) {
	tbl := newPatients(t, alice(), bob(), Row{I(3), S("carol"), Null(), I(25)})
	if err := tbl.Delete(Row{I(1)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len = %d", tbl.Len())
	}
	// The swap-delete must keep the index pointing at the moved row.
	got, ok := tbl.Get(Row{I(3)})
	if !ok {
		t.Fatal("moved row lost")
	}
	if s, _ := got[1].Str(); s != "carol" {
		t.Fatalf("moved row corrupted: %v", got)
	}
	if err := tbl.Delete(Row{I(1)}); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
}

func TestUpsert(t *testing.T) {
	tbl := newPatients(t, alice())
	if err := tbl.Upsert(Row{I(1), S("alice"), S("Kyoto"), I(30)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	got, _ := tbl.Get(Row{I(1)})
	if s, _ := got[2].Str(); s != "Kyoto" {
		t.Fatal("upsert did not replace")
	}
	if err := tbl.Upsert(bob()); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatal("upsert did not insert")
	}
}

func TestRowsCanonicalSorted(t *testing.T) {
	tbl := newPatients(t, Row{I(3), S("c"), Null(), I(1)}, Row{I(1), S("a"), Null(), I(1)}, Row{I(2), S("b"), Null(), I(1)})
	rows := tbl.RowsCanonical()
	for i := 0; i < len(rows)-1; i++ {
		a, _ := rows[i][0].Int()
		b, _ := rows[i+1][0].Int()
		if a >= b {
			t.Fatalf("not sorted: %d before %d", a, b)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := newPatients(t, alice(), bob())
	count := 0
	err := tbl.Scan(func(Row) (bool, error) {
		count++
		return false, nil
	})
	if err != nil || count != 1 {
		t.Fatalf("scan stopped after %d rows, err %v", count, err)
	}
}

func TestScanPropagatesError(t *testing.T) {
	tbl := newPatients(t, alice())
	want := errors.New("boom")
	if err := tbl.Scan(func(Row) (bool, error) { return true, want }); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestTableValue(t *testing.T) {
	tbl := newPatients(t, alice())
	v, err := tbl.Value(Row{I(1)}, "name")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.Str(); s != "alice" {
		t.Fatalf("Value = %v", v)
	}
	if _, err := tbl.Value(Row{I(9)}, "name"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal(err)
	}
	if _, err := tbl.Value(Row{I(1)}, "ghost"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatal(err)
	}
}

func TestTableEqualIgnoresInsertionOrder(t *testing.T) {
	a := newPatients(t, alice(), bob())
	b := newPatients(t, bob(), alice())
	if !a.Equal(b) {
		t.Fatal("tables with same rows in different order should be equal")
	}
}

func TestTableHashInsensitiveToOrderAndName(t *testing.T) {
	a := newPatients(t, alice(), bob())
	b := newPatients(t, bob(), alice())
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on insertion order")
	}
	c := b.Renamed("other")
	if a.Hash() != c.Hash() {
		t.Fatal("hash depends on table name")
	}
}

func TestTableHashSensitiveToContent(t *testing.T) {
	a := newPatients(t, alice())
	b := newPatients(t, alice())
	if err := b.Update(Row{I(1)}, map[string]Value{"age": I(31)}); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash insensitive to value change")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := newPatients(t, alice())
	b := a.Clone()
	if err := b.Update(Row{I(1)}, map[string]Value{"age": I(99)}); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Get(Row{I(1)})
	if v, _ := got[3].Int(); v != 30 {
		t.Fatal("clone aliases original")
	}
}

func TestRenamed(t *testing.T) {
	a := newPatients(t, alice())
	b := a.Renamed("other")
	if b.Name() != "other" || a.Name() != "patients" {
		t.Fatalf("names: %s, %s", a.Name(), b.Name())
	}
	if !a.Equal(b) {
		t.Fatal("rename must preserve contents")
	}
}

// TestIndexConsistencyQuick drives a random mutation sequence and checks
// that the key index always agrees with a linear scan.
func TestIndexConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := MustNewTable(patientSchema())
		live := make(map[int64]bool)
		for op := 0; op < 200; op++ {
			id := int64(rng.Intn(20))
			switch rng.Intn(3) {
			case 0:
				err := tbl.Insert(Row{I(id), S(fmt.Sprintf("p%d", id)), Null(), I(int64(rng.Intn(90)))})
				if live[id] {
					if !errors.Is(err, ErrDuplicateKey) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					live[id] = true
				}
			case 1:
				err := tbl.Delete(Row{I(id)})
				if live[id] {
					if err != nil {
						return false
					}
					delete(live, id)
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			case 2:
				err := tbl.Update(Row{I(id)}, map[string]Value{"age": I(int64(rng.Intn(90)))})
				if live[id] && err != nil {
					return false
				}
				if !live[id] && !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			}
		}
		if tbl.Len() != len(live) {
			return false
		}
		for id := range live {
			if !tbl.Has(Row{I(id)}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
