package bx

import (
	"fmt"

	"medshare/internal/reldb"
)

// RenameLens renames view columns relative to the source (the sharing
// peers "form an agreement on the structure of the shared table",
// Section III-C2 — which may use different attribute names than either
// peer's local schema). Renaming is a bijection, so the lens is trivially
// well behaved.
type RenameLens struct {
	// ViewName names the produced view table.
	ViewName string
	// Mapping maps source column names to view column names.
	Mapping map[string]string
}

// Rename constructs a column-renaming lens.
func Rename(viewName string, mapping map[string]string) *RenameLens {
	return &RenameLens{ViewName: viewName, Mapping: mapping}
}

func (l *RenameLens) validate() error {
	inv := make(map[string]bool, len(l.Mapping))
	for _, to := range l.Mapping {
		if inv[to] {
			return fmt.Errorf("%w: rename maps two columns to %q", ErrSpecInvalid, to)
		}
		inv[to] = true
	}
	return nil
}

// ViewSchema returns the schema of the view of a source with schema src.
func (l *RenameLens) ViewSchema(src reldb.Schema) (reldb.Schema, error) {
	if err := l.validate(); err != nil {
		return reldb.Schema{}, err
	}
	ns := src.Rename(l.ViewName)
	for i, c := range ns.Columns {
		if nw, ok := l.Mapping[c.Name]; ok {
			ns.Columns[i].Name = nw
		}
	}
	for i, k := range ns.Key {
		if nw, ok := l.Mapping[k]; ok {
			ns.Key[i] = nw
		}
	}
	if err := ns.Validate(); err != nil {
		return reldb.Schema{}, err
	}
	return ns, nil
}

// Get implements Lens.
func (l *RenameLens) Get(src *reldb.Table) (*reldb.Table, error) {
	if err := l.validate(); err != nil {
		return nil, err
	}
	return src.RenameColumns(l.ViewName, l.Mapping)
}

// Spec implements Lens.
func (l *RenameLens) Spec() Spec {
	m := make(map[string]string, len(l.Mapping))
	for k, v := range l.Mapping {
		m[k] = v
	}
	return Spec{Op: OpRename, ViewName: l.ViewName, Mapping: m}
}
