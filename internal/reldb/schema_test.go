package reldb

import (
	"errors"
	"testing"
)

func patientSchema() Schema {
	return Schema{
		Name: "patients",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "name", Type: KindString},
			{Name: "city", Type: KindString, Nullable: true},
			{Name: "age", Type: KindInt},
		},
		Key: []string{"id"},
	}
}

func TestSchemaValidateOK(t *testing.T) {
	if err := patientSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Schema)
	}{
		{"empty name", func(s *Schema) { s.Name = "" }},
		{"no columns", func(s *Schema) { s.Columns = nil }},
		{"unnamed column", func(s *Schema) { s.Columns[0].Name = "" }},
		{"duplicate column", func(s *Schema) { s.Columns[1].Name = "id" }},
		{"no key", func(s *Schema) { s.Key = nil }},
		{"missing key column", func(s *Schema) { s.Key = []string{"ghost"} }},
		{"duplicate key column", func(s *Schema) { s.Key = []string{"id", "id"} }},
		{"nullable key", func(s *Schema) { s.Key = []string{"city"} }},
	}
	for _, c := range cases {
		s := patientSchema()
		c.mutate(&s)
		if err := s.Validate(); !errors.Is(err, ErrSchemaInvalid) {
			t.Errorf("%s: want ErrSchemaInvalid, got %v", c.name, err)
		}
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := patientSchema()
	if i := s.ColumnIndex("city"); i != 2 {
		t.Fatalf("city index = %d", i)
	}
	if i := s.ColumnIndex("ghost"); i != -1 {
		t.Fatalf("ghost index = %d", i)
	}
	if !s.HasColumn("age") || s.HasColumn("ghost") {
		t.Fatal("HasColumn wrong")
	}
}

func TestSchemaKeyHelpers(t *testing.T) {
	s := patientSchema()
	if got := s.KeyIndexes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("KeyIndexes = %v", got)
	}
	if !s.IsKeyColumn("id") || s.IsKeyColumn("name") {
		t.Fatal("IsKeyColumn wrong")
	}
}

func TestSchemaEqualIgnoresName(t *testing.T) {
	a := patientSchema()
	b := patientSchema()
	b.Name = "renamed"
	if !a.Equal(b) {
		t.Fatal("schemas differing only in name should be equal")
	}
	b.Columns[3].Type = KindFloat
	if a.Equal(b) {
		t.Fatal("different column types should not be equal")
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	a := patientSchema()
	b := a.Clone()
	b.Columns[0].Name = "pk"
	b.Key[0] = "pk"
	if a.Columns[0].Name != "id" || a.Key[0] != "id" {
		t.Fatal("clone aliases original")
	}
}

func TestSchemaProjectInheritsKey(t *testing.T) {
	s := patientSchema()
	p, err := s.Project("v", []string{"id", "name"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Key) != 1 || p.Key[0] != "id" {
		t.Fatalf("key = %v", p.Key)
	}
	if len(p.Columns) != 2 {
		t.Fatalf("columns = %v", p.Columns)
	}
}

func TestSchemaProjectNewKey(t *testing.T) {
	s := patientSchema()
	p, err := s.Project("v", []string{"name", "age"}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Key[0] != "name" {
		t.Fatalf("key = %v", p.Key)
	}
}

func TestSchemaProjectDropsKeyWithoutNewKey(t *testing.T) {
	s := patientSchema()
	if _, err := s.Project("v", []string{"name", "age"}, nil); !errors.Is(err, ErrSchemaInvalid) {
		t.Fatalf("want ErrSchemaInvalid, got %v", err)
	}
}

func TestSchemaProjectUnknownColumn(t *testing.T) {
	s := patientSchema()
	if _, err := s.Project("v", []string{"ghost"}, []string{"ghost"}); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

func TestSchemaProjectClearsNullableOnNewKey(t *testing.T) {
	s := patientSchema()
	p, err := s.Project("v", []string{"city", "id"}, []string{"city"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Columns[p.ColumnIndex("city")].Nullable {
		t.Fatal("key column must not stay nullable")
	}
}

func TestCheckRow(t *testing.T) {
	s := patientSchema()
	good := Row{I(1), S("alice"), Null(), I(30)}
	if err := s.checkRow(good); err != nil {
		t.Fatal(err)
	}
	bad := []Row{
		{I(1), S("alice"), Null()},                // arity
		{S("1"), S("alice"), Null(), I(30)},       // type
		{I(1), Null(), Null(), I(30)},             // null in non-nullable
		{I(1), S("alice"), S("osaka"), F(30)},     // float for int
		{I(1), S("alice"), I(99), I(30)},          // wrong kind in nullable col
		{I(1), S("a"), Null(), I(30), S("extra")}, // too many
	}
	for i, r := range bad {
		if err := s.checkRow(r); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("row %d: want ErrTypeMismatch, got %v", i, err)
		}
	}
}

func TestParseKeyTypesBySchema(t *testing.T) {
	s := Schema{
		Name: "visits",
		Columns: []Column{
			{Name: "pid", Type: KindInt},
			{Name: "code", Type: KindString},
			{Name: "note", Type: KindString},
		},
		Key: []string{"pid", "code"},
	}
	key, err := ParseKey("007,42", s)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Row{I(7), S("42")}); !key.Equal(want) {
		t.Fatalf("ParseKey = %v, want %v", key, want)
	}
	for _, raw := range []string{"", "7", "7,42,x", "seven,42"} {
		if _, err := ParseKey(raw, s); err == nil {
			t.Errorf("ParseKey(%q) accepted", raw)
		}
	}
}
