package reldb

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// opsSecret seeds the origin table of FuzzTableOps, so its Hash is a
// keyed-shape root like a stored replica's.
var opsSecret = []byte("table-ops-fuzz-seed")

// Value pools the fuzzed operations draw from. Keys range over twice the
// origin's rows, so about half of the keyed operations miss.
var (
	opsCities = []Value{S("city0"), S("city1"), S("city2"), S("city3"), Null()}
	opsNames  = []Value{S("a"), S("b"), S("c"), Null()} // name is not nullable
	opsAges   = []Value{I(20), I(21), I(22), S("old")}  // age is an int
)

const opsOriginRows = 24

// opsModel is the naive reference FuzzTableOps checks the table
// against: the rows by id, and the sentinel each operation must refuse
// with.
type opsModel map[int64]Row

// checkRow is Schema.checkRow over the values the pools can produce.
func (m opsModel) checkRow(r Row) error {
	if r[1].IsNull() || r[3].Kind() != KindInt {
		return ErrTypeMismatch
	}
	return nil
}

// fuzzOp decodes one operation from four bytes, runs it on t and
// returns the error the model expects along with the one the table
// gave. The model is advanced when the operation should succeed.
func (m opsModel) fuzzOp(t *Table, op []byte) (want, got error, desc string) {
	id := int64(op[1]) % (2 * opsOriginRows)
	row := Row{I(id), opsNames[op[2]%4], opsCities[op[3]%5], opsAges[op[3]/5%4]}
	_, present := m[id]
	switch op[0] % 4 {
	case 0:
		if want = m.checkRow(row); want == nil && present {
			want = ErrDuplicateKey
		}
		got = t.Insert(row)
		desc = fmt.Sprintf("Insert(%v)", row)
	case 1:
		want = m.checkRow(row)
		got = t.Upsert(row)
		desc = fmt.Sprintf("Upsert(%v)", row)
	case 2:
		if !present {
			want = ErrKeyNotFound
		}
		got = t.Delete(Row{I(id)})
		desc = fmt.Sprintf("Delete(%d)", id)
	default:
		// The first column may be invalid; a second one, if any, is a
		// real non-key column, so the expected sentinel does not depend
		// on the order Update visits the set in.
		cols := []string{"name", "city", "age", "id", "nope"}
		vals := []Value{row[1], row[2], row[3], I(id), S("x")}
		first := int(op[2]) % len(cols)
		set := map[string]Value{cols[first]: vals[first]}
		if second := int(op[2]/8) % 4; second < 3 && second != first {
			set[cols[second]] = vals[second]
		}
		switch {
		case !present:
			want = ErrKeyNotFound
		case first == 3:
			want = ErrKeyImmutable
		case first == 4:
			want = ErrNoSuchColumn
		default:
			updated := m[id].Clone()
			for i, c := range cols[:3] {
				if v, ok := set[c]; ok {
					updated[i+1] = v
				}
			}
			if want = m.checkRow(updated); want == nil {
				row = updated
			}
		}
		got = t.Update(Row{I(id)}, set)
		desc = fmt.Sprintf("Update(%d, %v)", id, set)
	}
	if want == nil {
		if op[0]%4 == 2 {
			delete(m, id)
		} else {
			m[id] = row
		}
	}
	return want, got, desc
}

// rebuilt is the model's rows built afresh through the empty table's
// editor and reseeded like the origin.
func (m opsModel) rebuilt(tb testing.TB) *Table {
	tb.Helper()
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b, err := NewTableBuilder(patientSchema())
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids {
		if err := b.Insert(m[id]); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Table().Reseeded(opsSecret)
}

// cityGroups answers RowsByCols over city for every city in the pool.
func cityGroups(tb testing.TB, t *Table) string {
	tb.Helper()
	var out []string
	for _, c := range opsCities {
		rows, err := t.RowsByCols([]string{"city"}, Row{c})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, fmt.Sprint(rows))
	}
	return fmt.Sprint(out)
}

// FuzzTableOps runs random Insert / Update / Upsert / Delete sequences
// on a clone of a hashed, seeded table with a secondary index built —
// failing operations included: a duplicate insert, a missing key, an
// update of the key column or of an unknown column, a value of the wrong
// type or a null in a non-nullable column — and checks every step
// against a naive map model:
//
//   - the table accepts exactly the operations the model accepts, and
//     refuses the others with the model's sentinel;
//   - a refused operation leaves the rows, Hash and RowsByCols as they
//     were;
//   - the rows equal the model's, Hash equals a rebuild's from the
//     canonical rows, and the maintained index equals a fresh
//     EnsureIndex on a rebuilt table;
//   - the origin's rows, Hash and index are untouched throughout.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 30, 0, 0, 3, 30, 2, 6})
	f.Add([]byte{3, 1, 1, 0, 3, 2, 3, 0, 3, 4, 4, 0, 3, 40, 1, 0, 1, 5, 1, 11})
	f.Add([]byte{2, 7, 0, 0, 2, 7, 0, 0, 1, 7, 0, 3, 0, 7, 1, 3, 3, 7, 9, 1})
	f.Add([]byte{1, 2, 0, 19, 3, 9, 1, 4, 3, 9, 0, 0, 2, 25, 0, 0, 0, 30, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		origin := secTable(t, opsOriginRows).Reseeded(opsSecret)
		city := []string{"city"}
		if err := origin.EnsureIndex(city); err != nil {
			t.Fatal(err)
		}
		originHash := origin.Hash()
		originRows := fmt.Sprint(origin.RowsCanonical())
		originIndex := fmt.Sprintf("%q", indexEntries(t, origin, city))

		model := opsModel{}
		for _, r := range origin.RowsCanonical() {
			id, _ := r[0].Int()
			model[id] = r
		}
		tbl := origin.Clone()
		for ; len(data) >= 4; data = data[4:] {
			prev := tbl.Clone()
			prevHash, prevGroups := tbl.Hash(), cityGroups(t, tbl)
			want, got, desc := model.fuzzOp(tbl, data[:4])
			switch {
			case want == nil && got != nil:
				t.Fatalf("%s: refused with %v, the model accepts it", desc, got)
			case want != nil && !errors.Is(got, want):
				t.Fatalf("%s: got %v, want %v", desc, got, want)
			case want != nil:
				if !tbl.SameVersion(prev) || tbl.Hash() != prevHash || cityGroups(t, tbl) != prevGroups {
					t.Fatalf("%s: refused, yet the table changed", desc)
				}
			}
			fresh := model.rebuilt(t)
			if !tbl.Equal(fresh) {
				t.Fatalf("%s: rows\n %v\nwant\n %v", desc, tbl.RowsCanonical(), fresh.RowsCanonical())
			}
			if tbl.Hash() != fresh.Hash() {
				t.Fatalf("%s: Hash differs from a rebuild's", desc)
			}
			expectFreshIndex(t, tbl, city)
		}
		if origin.Hash() != originHash || fmt.Sprint(origin.RowsCanonical()) != originRows ||
			fmt.Sprintf("%q", indexEntries(t, origin, city)) != originIndex {
			t.Fatal("the operations changed their origin")
		}
		expectFreshIndex(t, origin, city)
	})
}
