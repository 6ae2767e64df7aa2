package bx

import "medshare/internal/reldb"

// ProjectLens is the workhorse lens of the paper: the view is a projection
// of the source onto a subset of columns, keyed by ViewKey, and the
// projection must be functional on ViewKey (two source rows agreeing on the
// view key must agree on every projected column).
//
// put aligns rows by the view key:
//   - a source row whose view-key tuple appears in the view gets its
//     projected non-key columns overwritten from the view row;
//   - a source row whose view-key tuple is absent from the view was deleted
//     on the view side: OnDelete decides whether the source row is deleted
//     (PolicyApply) or the edit rejected (PolicyForbid);
//   - a view row whose key matches no source row was inserted on the view
//     side: OnInsert decides whether a fresh source row is created
//     (PolicyApply, hidden columns from Defaults) or the edit rejected.
//
// With key alignment the lens is well behaved: GetPut holds because an
// unchanged view overwrites every projected column with its current value,
// and PutGet holds because after put every source row projects onto exactly
// the view rows (hidden columns are invisible to get).
type ProjectLens struct {
	// ViewName names the produced view table (for example "D13").
	ViewName string
	// Cols are the projected source columns, in view column order.
	Cols []string
	// ViewKey is the primary key of the view. Empty inherits the source
	// key (which then must be contained in Cols).
	ViewKey []string
	// OnDelete and OnInsert are PolicyApply or PolicyForbid (default
	// PolicyForbid, the conservative choice for medical data).
	OnDelete string
	OnInsert string
	// Defaults supplies values for hidden source columns when OnInsert is
	// PolicyApply. Hidden non-nullable columns without defaults make
	// inserts fail.
	Defaults map[string]reldb.Value
}

// Project constructs a projection lens with forbid policies.
func Project(viewName string, cols []string, viewKey []string) *ProjectLens {
	return &ProjectLens{ViewName: viewName, Cols: cols, ViewKey: viewKey,
		OnDelete: PolicyForbid, OnInsert: PolicyForbid}
}

// WithDelete sets the view-delete policy and returns the lens.
func (l *ProjectLens) WithDelete(policy string) *ProjectLens {
	l.OnDelete = policy
	return l
}

// WithInsert sets the view-insert policy (and default values for hidden
// columns) and returns the lens.
func (l *ProjectLens) WithInsert(policy string, defaults map[string]reldb.Value) *ProjectLens {
	l.OnInsert = policy
	l.Defaults = defaults
	return l
}

// ViewSchema returns the schema of the view of a source with schema src.
func (l *ProjectLens) ViewSchema(src reldb.Schema) (reldb.Schema, error) {
	return src.Project(l.ViewName, l.Cols, l.ViewKey)
}

// Get implements Lens.
func (l *ProjectLens) Get(src *reldb.Table) (*reldb.Table, error) {
	return src.Project(l.ViewName, l.Cols, l.ViewKey)
}

// newSourceRow builds a fresh source row for a view-side insert: hidden
// columns take the lens defaults (NULL otherwise), projected columns take
// the view row's values.
func (l *ProjectLens) newSourceRow(srcSchema reldb.Schema, colIdxInSrc []int, vr reldb.Row) reldb.Row {
	nr := make(reldb.Row, len(srcSchema.Columns))
	for i, c := range srcSchema.Columns {
		if dv, ok := l.Defaults[c.Name]; ok {
			nr[i] = dv
		} else {
			nr[i] = reldb.Null()
		}
	}
	for vi, si := range colIdxInSrc {
		nr[si] = vr[vi]
	}
	return nr
}

// Spec implements Lens.
func (l *ProjectLens) Spec() Spec {
	return Spec{
		Op:       OpProject,
		ViewName: l.ViewName,
		Cols:     append([]string(nil), l.Cols...),
		Key:      append([]string(nil), l.ViewKey...),
		OnDelete: l.OnDelete,
		OnInsert: l.OnInsert,
		Defaults: cloneDefaults(l.Defaults),
	}
}

func viewKeyOf(s reldb.Schema, r reldb.Row) reldb.Row {
	idx := s.KeyIndexes()
	out := make(reldb.Row, len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}

// keyString encodes a key tuple with the ordered storage encoding (the
// bytes GetKeyBytes probes with).
func keyString(key reldb.Row) string {
	var buf []byte
	for _, v := range key {
		buf = v.AppendOrdered(buf)
	}
	return string(buf)
}

func cloneDefaults(m map[string]reldb.Value) map[string]reldb.Value {
	if m == nil {
		return nil
	}
	out := make(map[string]reldb.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
