package bx

import (
	"encoding/json"
	"fmt"

	"medshare/internal/reldb"
)

// Lens spec operation names.
const (
	OpProject = "project"
	OpSelect  = "select"
	OpRename  = "rename"
	OpCompose = "compose"
	OpJoin    = "join"
)

// Spec is the serializable description of a lens. Specs are what the
// sharing peers agree on and register on-chain (Section III-C2): any
// authorized peer can rebuild the exact lens from the metadata.
type Spec struct {
	Op       string                 `json:"op"`
	ViewName string                 `json:"view,omitempty"`
	Cols     []string               `json:"cols,omitempty"`
	Key      []string               `json:"key,omitempty"`
	OnDelete string                 `json:"onDelete,omitempty"`
	OnInsert string                 `json:"onInsert,omitempty"`
	Defaults map[string]reldb.Value `json:"defaults,omitempty"`
	Pred     json.RawMessage        `json:"pred,omitempty"`
	Mapping  map[string]string      `json:"mapping,omitempty"`
	Inner    []Spec                 `json:"inner,omitempty"`
	// Ref is the embedded reference table of a join lens.
	Ref json.RawMessage `json:"ref,omitempty"`
}

// Marshal serializes the spec to JSON.
func (s Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// ParseSpec decodes a spec serialized by Spec.Marshal.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpecInvalid, err)
	}
	return s, nil
}

// Build reconstructs the lens described by the spec.
func (s Spec) Build() (Lens, error) {
	switch s.Op {
	case OpProject:
		if len(s.Cols) == 0 {
			return nil, fmt.Errorf("%w: project lens with no columns", ErrSpecInvalid)
		}
		l := Project(s.ViewName, s.Cols, s.Key)
		l.OnDelete = defaultPolicy(s.OnDelete)
		l.OnInsert = defaultPolicy(s.OnInsert)
		l.Defaults = cloneDefaults(s.Defaults)
		return l, nil
	case OpSelect:
		if len(s.Pred) == 0 {
			return nil, fmt.Errorf("%w: select lens with no predicate", ErrSpecInvalid)
		}
		pred, err := reldb.UnmarshalPredicate(s.Pred)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpecInvalid, err)
		}
		return Select(s.ViewName, pred).WithDelete(defaultPolicy(s.OnDelete)).WithInsert(defaultPolicy(s.OnInsert)), nil
	case OpRename:
		if len(s.Mapping) == 0 {
			return nil, fmt.Errorf("%w: rename lens with no mapping", ErrSpecInvalid)
		}
		return Rename(s.ViewName, s.Mapping), nil
	case OpJoin:
		if len(s.Ref) == 0 {
			return nil, fmt.Errorf("%w: join lens with no reference table", ErrSpecInvalid)
		}
		ref, err := reldb.UnmarshalTable(s.Ref)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpecInvalid, err)
		}
		return Join(s.ViewName, ref), nil
	case OpCompose:
		if len(s.Inner) != 2 {
			return nil, fmt.Errorf("%w: compose lens wants 2 inner specs, got %d", ErrSpecInvalid, len(s.Inner))
		}
		inner, err := s.Inner[0].Build()
		if err != nil {
			return nil, err
		}
		outer, err := s.Inner[1].Build()
		if err != nil {
			return nil, err
		}
		return Compose(inner, outer), nil
	default:
		return nil, fmt.Errorf("%w: unknown lens op %q", ErrSpecInvalid, s.Op)
	}
}

func defaultPolicy(p string) string {
	if p == "" {
		return PolicyForbid
	}
	return p
}
