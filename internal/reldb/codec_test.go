package reldb

import (
	"strings"
	"testing"
	"time"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tbl := newPatients(t, alice(), bob())
	raw, err := MarshalTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(back) {
		t.Fatal("table changed across JSON round trip")
	}
	if tbl.Hash() != back.Hash() {
		t.Fatal("hash changed across JSON round trip")
	}
}

func TestTableJSONDeterministic(t *testing.T) {
	a := newPatients(t, alice(), bob())
	b := newPatients(t, bob(), alice())
	ra, _ := MarshalTable(a)
	rb, _ := MarshalTable(b)
	// Names equal, contents equal, insertion order different: encodings
	// must match byte for byte (canonical row order).
	if string(ra) != string(rb) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestTableJSONWithTimes(t *testing.T) {
	s := Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "at", Type: KindTime},
		},
		Key: []string{"id"},
	}
	tbl := MustNewTable(s)
	tbl.MustInsert(Row{I(1), T(time.Date(2019, 4, 24, 1, 2, 3, 456789000, time.UTC))})
	raw, err := MarshalTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(back) {
		t.Fatal("time values corrupted")
	}
}

func TestUnmarshalTableRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalTable([]byte("no")); err == nil {
		t.Fatal("garbage should fail")
	}
	// Valid JSON, invalid schema.
	if _, err := UnmarshalTable([]byte(`{"schema":{"name":"x","columns":[],"key":[]},"rows":[]}`)); err == nil {
		t.Fatal("invalid schema should fail")
	}
}

func TestChangesetCodecRoundTrip(t *testing.T) {
	a := newPatients(t, alice(), bob())
	b := newPatients(t, alice())
	if err := b.Update(Row{I(1)}, map[string]Value{"age": I(77)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(Row{I(9), S("caf\xe9"), Null(), I(1)}); err != nil {
		t.Fatal(err)
	}
	cs, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendChangeset(nil, cs)
	back, err := DecodeChangeset(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != cs.Size() || string(AppendChangeset(nil, back)) != string(raw) {
		t.Fatal("changeset does not re-encode to its bytes")
	}
	c := a.Clone()
	if err := c.Apply(back); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(b) || c.Hash() != b.Hash() {
		t.Fatal("changeset semantics changed across the binary codec")
	}
}

func TestFormat(t *testing.T) {
	tbl := newPatients(t, alice())
	out := Format(tbl)
	for _, want := range []string{"patients", "id", "name", "alice", "Osaka", "(key: id)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format output missing %q:\n%s", want, out)
		}
	}
}
