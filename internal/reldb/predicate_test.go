package reldb

import (
	"errors"
	"testing"
)

func evalOn(t *testing.T, p Predicate, r Row) bool {
	t.Helper()
	got, err := p.Eval(patientSchema(), r)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return got
}

func TestPredicateTrue(t *testing.T) {
	if !evalOn(t, True(), alice()) {
		t.Fatal("True() must match")
	}
}

func TestPredicateCmpOperators(t *testing.T) {
	r := alice() // age 30
	cases := []struct {
		op   CmpOp
		v    int64
		want bool
	}{
		{OpEq, 30, true}, {OpEq, 31, false},
		{OpNe, 30, false}, {OpNe, 31, true},
		{OpLt, 31, true}, {OpLt, 30, false},
		{OpLe, 30, true}, {OpLe, 29, false},
		{OpGt, 29, true}, {OpGt, 30, false},
		{OpGe, 30, true}, {OpGe, 31, false},
	}
	for _, c := range cases {
		if got := evalOn(t, Cmp("age", c.op, I(c.v)), r); got != c.want {
			t.Errorf("age %s %d = %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

func TestPredicateNullSemantics(t *testing.T) {
	b := bob() // city NULL
	if evalOn(t, Cmp("city", OpLt, S("Z")), b) {
		t.Fatal("NULL < x must be false")
	}
	if !evalOn(t, Cmp("city", OpEq, Null()), b) {
		t.Fatal("NULL == NULL via Eq must hold")
	}
	if evalOn(t, Cmp("city", OpEq, Null()), alice()) {
		t.Fatal("Osaka == NULL must be false")
	}
	if !evalOn(t, Cmp("city", OpNe, Null()), alice()) {
		t.Fatal("Osaka != NULL must be true")
	}
	if !evalOn(t, IsNull("city"), b) || evalOn(t, IsNull("city"), alice()) {
		t.Fatal("IsNull wrong")
	}
}

func TestPredicateBooleans(t *testing.T) {
	r := alice()
	p := And(Cmp("city", OpEq, S("Osaka")), Cmp("age", OpGe, I(18)))
	if !evalOn(t, p, r) {
		t.Fatal("And should match")
	}
	p = Or(Cmp("city", OpEq, S("Kyoto")), Cmp("name", OpEq, S("alice")))
	if !evalOn(t, p, r) {
		t.Fatal("Or should match")
	}
	if evalOn(t, Not(True()), r) {
		t.Fatal("Not(True) should not match")
	}
	if evalOn(t, And(True(), Not(True())), r) {
		t.Fatal("And with false conjunct should not match")
	}
}

func TestPredicateUnknownColumn(t *testing.T) {
	_, err := Cmp("ghost", OpEq, I(1)).Eval(patientSchema(), alice())
	if !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

func TestPredicateTypeMismatch(t *testing.T) {
	_, err := Cmp("age", OpLt, S("thirty")).Eval(patientSchema(), alice())
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

func TestPredicateSerializationRoundTrip(t *testing.T) {
	preds := []Predicate{
		True(),
		Cmp("city", OpEq, S("Osaka")),
		Cmp("age", OpGe, I(18)),
		IsNull("city"),
		And(Cmp("name", OpEq, S("alice")), Not(Cmp("age", OpLt, I(10)))),
		Or(True(), IsNull("city"), Cmp("age", OpEq, I(1))),
	}
	rows := []Row{alice(), bob()}
	for i, p := range preds {
		raw, err := MarshalPredicate(p)
		if err != nil {
			t.Fatalf("pred %d marshal: %v", i, err)
		}
		back, err := UnmarshalPredicate(raw)
		if err != nil {
			t.Fatalf("pred %d unmarshal: %v", i, err)
		}
		for _, r := range rows {
			a, err1 := p.Eval(patientSchema(), r)
			b, err2 := back.Eval(patientSchema(), r)
			if (err1 == nil) != (err2 == nil) || a != b {
				t.Fatalf("pred %d semantics changed after round trip", i)
			}
		}
	}
}

func TestPredicateUnmarshalRejectsGarbage(t *testing.T) {
	for _, raw := range []string{
		`{"op":"alien"}`,
		`{"op":"cmp","col":"x"}`,  // missing value
		`{"op":"not","inner":[]}`, // wrong arity
		`{"op":"not","inner":[{"op":"true"},{"op":"true"}]}`,
		`not even json`,
	} {
		if _, err := UnmarshalPredicate([]byte(raw)); err == nil {
			t.Errorf("unmarshal %s should fail", raw)
		}
	}
}
