package bx

import (
	"fmt"

	"medshare/internal/reldb"
)

// SelectLens restricts the view to source rows satisfying a predicate
// (horizontal fine-graining: e.g. a doctor shares only rows for one
// patient). The view has the full source schema.
//
// put semantics with key alignment:
//   - a view row must satisfy the predicate (otherwise the row would
//     silently vanish from its own view after put, violating PutGet);
//   - source rows not satisfying the predicate pass through unchanged
//     (they are invisible to the view);
//   - a source row satisfying the predicate that is absent from the view
//     was deleted on the view side (OnDelete policy);
//   - a view row whose key is absent from the source was inserted on the
//     view side (OnInsert policy).
type SelectLens struct {
	// ViewName names the produced view table.
	ViewName string
	// Pred selects the shared rows.
	Pred reldb.Predicate
	// OnDelete and OnInsert are PolicyApply or PolicyForbid.
	OnDelete string
	OnInsert string
}

// Select constructs a selection lens with forbid policies.
func Select(viewName string, pred reldb.Predicate) *SelectLens {
	return &SelectLens{ViewName: viewName, Pred: pred, OnDelete: PolicyForbid, OnInsert: PolicyForbid}
}

// WithDelete sets the view-delete policy and returns the lens.
func (l *SelectLens) WithDelete(policy string) *SelectLens {
	l.OnDelete = policy
	return l
}

// WithInsert sets the view-insert policy and returns the lens.
func (l *SelectLens) WithInsert(policy string) *SelectLens {
	l.OnInsert = policy
	return l
}

// Get implements Lens.
func (l *SelectLens) Get(src *reldb.Table) (*reldb.Table, error) {
	return src.Select(l.ViewName, l.Pred)
}

// Spec implements Lens.
func (l *SelectLens) Spec() Spec {
	pred, err := reldb.MarshalPredicate(l.Pred)
	if err != nil {
		// Predicates constructed through the public combinators always
		// marshal; a failure here indicates a programming error.
		panic(fmt.Sprintf("bx: predicate marshal: %v", err))
	}
	return Spec{
		Op:       OpSelect,
		ViewName: l.ViewName,
		Pred:     pred,
		OnDelete: l.OnDelete,
		OnInsert: l.OnInsert,
	}
}
