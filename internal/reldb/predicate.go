package reldb

import (
	"encoding/json"
	"fmt"
)

// Predicate evaluates a boolean condition against a row. Predicates are
// serializable so that selection lenses can be registered as share metadata
// on the blockchain and reconstructed by any peer.
type Predicate interface {
	// Eval reports whether the row satisfies the predicate.
	Eval(s Schema, r Row) (bool, error)
	// spec returns the serializable form.
	spec() predSpec
}

// CmpOp is a comparison operator used by column predicates.
type CmpOp string

// Supported comparison operators.
const (
	OpEq CmpOp = "eq"
	OpNe CmpOp = "ne"
	OpLt CmpOp = "lt"
	OpLe CmpOp = "le"
	OpGt CmpOp = "gt"
	OpGe CmpOp = "ge"
)

type predSpec struct {
	Op    string     `json:"op"` // "true", "cmp", "and", "or", "not", "null"
	Col   string     `json:"col,omitempty"`
	Cmp   CmpOp      `json:"cmp,omitempty"`
	Val   *Value     `json:"val,omitempty"`
	Inner []predSpec `json:"inner,omitempty"`
}

// True is the predicate that matches every row.
func True() Predicate { return truePred{} }

type truePred struct{}

func (truePred) Eval(Schema, Row) (bool, error) { return true, nil }
func (truePred) spec() predSpec                 { return predSpec{Op: "true"} }

// Cmp compares the named column with a constant.
func Cmp(col string, op CmpOp, v Value) Predicate { return cmpPred{col: col, op: op, v: v} }

type cmpPred struct {
	col string
	op  CmpOp
	v   Value
}

func (p cmpPred) Eval(s Schema, r Row) (bool, error) {
	i := s.ColumnIndex(p.col)
	if i < 0 {
		return false, fmt.Errorf("%w: %s (predicate)", ErrNoSuchColumn, p.col)
	}
	got := r[i]
	if got.IsNull() || p.v.IsNull() {
		// SQL-style three-valued logic collapsed to false: NULL compares
		// with nothing, except eq/ne against NULL which test null-ness.
		switch p.op {
		case OpEq:
			return got.IsNull() && p.v.IsNull(), nil
		case OpNe:
			return got.IsNull() != p.v.IsNull(), nil
		default:
			return false, nil
		}
	}
	if got.Kind() != p.v.Kind() {
		return false, fmt.Errorf("%w: predicate on %s compares %s with %s", ErrTypeMismatch, p.col, got.Kind(), p.v.Kind())
	}
	c := got.Compare(p.v)
	switch p.op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("reldb: unknown comparison op %q", p.op)
	}
}

func (p cmpPred) spec() predSpec {
	v := p.v
	return predSpec{Op: "cmp", Col: p.col, Cmp: p.op, Val: &v}
}

// IsNull matches rows whose named column is NULL.
func IsNull(col string) Predicate { return nullPred{col: col} }

type nullPred struct{ col string }

func (p nullPred) Eval(s Schema, r Row) (bool, error) {
	i := s.ColumnIndex(p.col)
	if i < 0 {
		return false, fmt.Errorf("%w: %s (predicate)", ErrNoSuchColumn, p.col)
	}
	return r[i].IsNull(), nil
}
func (p nullPred) spec() predSpec { return predSpec{Op: "null", Col: p.col} }

// And matches rows satisfying all inner predicates.
func And(ps ...Predicate) Predicate { return boolPred{op: "and", inner: ps} }

// Or matches rows satisfying at least one inner predicate.
func Or(ps ...Predicate) Predicate { return boolPred{op: "or", inner: ps} }

// Not matches rows not satisfying the inner predicate.
func Not(p Predicate) Predicate { return boolPred{op: "not", inner: []Predicate{p}} }

type boolPred struct {
	op    string
	inner []Predicate
}

func (p boolPred) Eval(s Schema, r Row) (bool, error) {
	switch p.op {
	case "and":
		for _, in := range p.inner {
			ok, err := in.Eval(s, r)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case "or":
		for _, in := range p.inner {
			ok, err := in.Eval(s, r)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case "not":
		ok, err := p.inner[0].Eval(s, r)
		return !ok, err
	default:
		return false, fmt.Errorf("reldb: unknown boolean op %q", p.op)
	}
}

func (p boolPred) spec() predSpec {
	out := predSpec{Op: p.op}
	for _, in := range p.inner {
		out.Inner = append(out.Inner, in.spec())
	}
	return out
}

// MarshalPredicate serializes a predicate to JSON.
func MarshalPredicate(p Predicate) ([]byte, error) {
	return json.Marshal(p.spec())
}

// UnmarshalPredicate reconstructs a predicate serialized by
// MarshalPredicate.
func UnmarshalPredicate(data []byte) (Predicate, error) {
	var sp predSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, err
	}
	return predFromSpec(sp)
}

func predFromSpec(sp predSpec) (Predicate, error) {
	switch sp.Op {
	case "true":
		return True(), nil
	case "null":
		return IsNull(sp.Col), nil
	case "cmp":
		if sp.Val == nil {
			return nil, fmt.Errorf("reldb: cmp predicate on %s missing value", sp.Col)
		}
		return Cmp(sp.Col, sp.Cmp, *sp.Val), nil
	case "and", "or", "not":
		inner := make([]Predicate, 0, len(sp.Inner))
		for _, in := range sp.Inner {
			p, err := predFromSpec(in)
			if err != nil {
				return nil, err
			}
			inner = append(inner, p)
		}
		switch sp.Op {
		case "and":
			return And(inner...), nil
		case "or":
			return Or(inner...), nil
		default:
			if len(inner) != 1 {
				return nil, fmt.Errorf("reldb: not predicate wants 1 inner, got %d", len(inner))
			}
			return Not(inner[0]), nil
		}
	default:
		return nil, fmt.Errorf("reldb: unknown predicate op %q", sp.Op)
	}
}
