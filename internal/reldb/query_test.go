package reldb

import (
	"errors"
	"testing"
)

func TestProjectBasic(t *testing.T) {
	tbl := newPatients(t, alice(), bob())
	v, err := tbl.Project("v", []string{"id", "name"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 || len(v.Schema().Columns) != 2 {
		t.Fatalf("projection shape wrong: %v", v)
	}
	got, _ := v.Get(Row{I(1)})
	if !got.Equal(Row{I(1), S("alice")}) {
		t.Fatalf("row = %v", got)
	}
}

func TestProjectReordersColumns(t *testing.T) {
	tbl := newPatients(t, alice())
	v, err := tbl.Project("v", []string{"name", "id"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := v.Get(Row{I(1)})
	if !got.Equal(Row{S("alice"), I(1)}) {
		t.Fatalf("row = %v", got)
	}
}

func TestProjectDedupesIdenticalRows(t *testing.T) {
	tbl := newPatients(t,
		Row{I(1), S("x"), S("Osaka"), I(1)},
		Row{I(2), S("x"), S("Osaka"), I(1)},
	)
	v, err := tbl.Project("v", []string{"name", "city"}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("want 1 deduped row, got %d", v.Len())
	}
}

func TestProjectNonFunctionalFails(t *testing.T) {
	tbl := newPatients(t,
		Row{I(1), S("x"), S("Osaka"), I(1)},
		Row{I(2), S("x"), S("Kyoto"), I(1)}, // same name, different city
	)
	_, err := tbl.Project("v", []string{"name", "city"}, []string{"name"})
	if !errors.Is(err, ErrSchemaInvalid) {
		t.Fatalf("want ErrSchemaInvalid, got %v", err)
	}
}

func TestSelect(t *testing.T) {
	tbl := newPatients(t, alice(), bob())
	v, err := tbl.Select("v", Cmp("city", OpEq, S("Osaka")))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 || !v.Has(Row{I(1)}) {
		t.Fatalf("selection wrong: %d rows", v.Len())
	}
}

func TestSelectPredicateError(t *testing.T) {
	tbl := newPatients(t, alice())
	if _, err := tbl.Select("v", Cmp("ghost", OpEq, I(1))); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

func TestRenameColumns(t *testing.T) {
	tbl := newPatients(t, alice())
	v, err := tbl.RenameColumns("v", map[string]string{"id": "patient_id", "name": "full_name"})
	if err != nil {
		t.Fatal(err)
	}
	s := v.Schema()
	if !s.HasColumn("patient_id") || !s.HasColumn("full_name") || s.HasColumn("id") {
		t.Fatalf("columns = %v", s.ColumnNames())
	}
	if s.Key[0] != "patient_id" {
		t.Fatalf("key = %v", s.Key)
	}
	if _, ok := v.Get(Row{I(1)}); !ok {
		t.Fatal("row lost in rename")
	}
}

func TestRenameUnknownColumn(t *testing.T) {
	tbl := newPatients(t, alice())
	if _, err := tbl.RenameColumns("v", map[string]string{"ghost": "x"}); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

func visitsSchema() Schema {
	return Schema{
		Name: "visits",
		Columns: []Column{
			{Name: "visit", Type: KindInt},
			{Name: "id", Type: KindInt}, // shared with patients
			{Name: "note", Type: KindString},
		},
		Key: []string{"visit"},
	}
}

func TestNaturalJoin(t *testing.T) {
	patients := newPatients(t, alice(), bob())
	visits := MustNewTable(visitsSchema())
	visits.MustInsert(Row{I(100), I(1), S("checkup")})
	visits.MustInsert(Row{I(101), I(1), S("follow-up")})
	visits.MustInsert(Row{I(102), I(2), S("intake")})

	j, err := patients.NaturalJoin("j", visits)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("join rows = %d", j.Len())
	}
	s := j.Schema()
	// patients cols then visits extras; key = union.
	want := []string{"id", "name", "city", "age", "visit", "note"}
	got := s.ColumnNames()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("columns = %v, want %v", got, want)
		}
	}
	if len(s.Key) != 2 {
		t.Fatalf("key = %v", s.Key)
	}
}

func TestNaturalJoinNoSharedColumns(t *testing.T) {
	patients := newPatients(t)
	other := MustNewTable(Schema{
		Name:    "o",
		Columns: []Column{{Name: "z", Type: KindInt}},
		Key:     []string{"z"},
	})
	if _, err := patients.NaturalJoin("j", other); !errors.Is(err, ErrSchemaInvalid) {
		t.Fatalf("want ErrSchemaInvalid, got %v", err)
	}
}

func TestNaturalJoinTypeConflict(t *testing.T) {
	patients := newPatients(t)
	other := MustNewTable(Schema{
		Name:    "o",
		Columns: []Column{{Name: "id", Type: KindString}},
		Key:     []string{"id"},
	})
	if _, err := patients.NaturalJoin("j", other); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

// TestNaturalJoinLeftKeyed pins the left-key-preserving fast path: when
// the right table's key columns are all part of the left key, the result
// is keyed exactly like the left table, unmatched left rows drop, and
// the output rides on the left tree (a pure semijoin shares it whole).
func TestNaturalJoinLeftKeyed(t *testing.T) {
	patients := newPatients(t, alice(), bob())

	insurance := MustNewTable(Schema{
		Name: "insurance",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "plan", Type: KindString},
		},
		Key: []string{"id"},
	})
	insurance.MustInsert(Row{I(1), S("gold")})

	j, err := patients.NaturalJoin("j", insurance)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Schema().Key; len(got) != 1 || got[0] != "id" {
		t.Fatalf("key = %v, want the left key", got)
	}
	if j.Len() != 1 {
		t.Fatalf("join rows = %d, want 1 (bob has no match and drops)", j.Len())
	}
	got, _ := j.Get(Row{I(1)})
	if !got.Equal(Row{I(1), S("alice"), S("Osaka"), I(30), S("gold")}) {
		t.Fatalf("row = %v", got)
	}

	// Semijoin (right side adds no columns): every surviving row is the
	// left row verbatim, so the whole tree — cached digests included — is
	// shared when everything matches.
	everyone := MustNewTable(Schema{
		Name:    "consent",
		Columns: []Column{{Name: "id", Type: KindInt}},
		Key:     []string{"id"},
	})
	everyone.MustInsert(Row{I(1)})
	everyone.MustInsert(Row{I(2)})
	patients.Hash()
	semi, err := patients.NaturalJoin("semi", everyone)
	if err != nil {
		t.Fatal(err)
	}
	if semi.Len() != 2 {
		t.Fatalf("semijoin rows = %d", semi.Len())
	}
	if _, ok := semi.CachedHash(); !ok {
		t.Fatal("full-match semijoin did not share the left tree's digest cache")
	}
	if semi.RowsRoot() != patients.RowsRoot() {
		t.Fatal("semijoin root differs from the left tree")
	}
}
