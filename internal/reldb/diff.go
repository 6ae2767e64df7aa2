package reldb

import (
	"fmt"

	"medshare/internal/reldb/pmap"
)

// RowChange records an update to a single row: the old and new images.
type RowChange struct {
	Before Row `json:"before"`
	After  Row `json:"after"`
}

// Changeset is the difference between two versions of a table with the
// same schema. Shares transfer changesets between peers instead of whole
// tables when the receiving side already holds the previous version.
type Changeset struct {
	Inserted []Row       `json:"inserted,omitempty"`
	Deleted  []Row       `json:"deleted,omitempty"`
	Updated  []RowChange `json:"updated,omitempty"`
}

// Empty reports whether the changeset contains no changes.
func (c Changeset) Empty() bool {
	return len(c.Inserted) == 0 && len(c.Deleted) == 0 && len(c.Updated) == 0
}

// Size returns the number of row-level changes.
func (c Changeset) Size() int {
	return len(c.Inserted) + len(c.Deleted) + len(c.Updated)
}

// ChangedColumns returns the set of column names touched by the changeset.
// The sharing layer uses it for attribute-level permission checks (Fig. 3)
// and overlap analysis (Fig. 5 step 6):
//
//   - updates contribute exactly the differing columns;
//   - a delete+insert pair with identical non-key values is a key rename
//     and contributes only the key columns (renaming a medication must not
//     demand write permission on its untouched mechanism);
//   - unpaired inserts and deletes create or destroy whole entries and
//     contribute every column.
func (c Changeset) ChangedColumns(s Schema) map[string]bool {
	out := make(map[string]bool)
	for _, u := range c.Updated {
		for i, col := range s.Columns {
			if i < len(u.Before) && i < len(u.After) && !u.Before[i].Equal(u.After[i]) {
				out[col.Name] = true
			}
		}
	}
	if len(c.Inserted) == 0 && len(c.Deleted) == 0 {
		return out
	}

	keyIdx := make(map[int]bool, len(s.Key))
	for _, i := range s.KeyIndexes() {
		keyIdx[i] = true
	}
	nonKeySig := func(r Row) string {
		var buf []byte
		for i, v := range r {
			if !keyIdx[i] {
				buf = v.AppendCanonical(buf)
			}
		}
		return string(buf)
	}
	// Multiset of deleted rows by their non-key content.
	deleted := make(map[string]int, len(c.Deleted))
	for _, r := range c.Deleted {
		deleted[nonKeySig(r)]++
	}
	allCols := false
	renames := 0
	for _, r := range c.Inserted {
		sig := nonKeySig(r)
		if deleted[sig] > 0 {
			deleted[sig]--
			renames++
			continue
		}
		allCols = true
	}
	for _, n := range deleted {
		if n > 0 {
			allCols = true
		}
	}
	if renames > 0 {
		for _, k := range s.Key {
			out[k] = true
		}
	}
	if allCols {
		for _, col := range s.Columns {
			out[col.Name] = true
		}
	}
	return out
}

// Diff computes the changeset that transforms t into target. Rows are
// matched by primary key; each changeset section lists rows in canonical
// key order. The schemas must be equal (modulo table name).
//
// The comparison is structural over the persistent row storage:
// subtrees the two tables share by pointer are skipped wholesale, so
// diffing a snapshot against a descendant produced by k edits (the
// UpdateView pattern: clone, edit, diff) costs
// O(k log n), not O(n).
func (t *Table) Diff(target *Table) (Changeset, error) {
	if !t.schema.Equal(target.schema) {
		return Changeset{}, fmt.Errorf("%w: diff between incompatible schemas %s and %s", ErrSchemaInvalid, t.schema.Name, target.schema.Name)
	}
	var cs Changeset
	pmap.Diff(t.rows, target.rows, sameRowEntry,
		func(_ string, e *rowEntry) bool { cs.Deleted = append(cs.Deleted, e.row); return true },
		func(_ string, e *rowEntry) bool { cs.Inserted = append(cs.Inserted, e.row); return true },
		func(_ string, before, after *rowEntry) bool {
			cs.Updated = append(cs.Updated, RowChange{Before: before.row, After: after.row})
			return true
		},
	)
	return cs, nil
}

// ValidateDiff checks that cs is the *minimal* keyed changeset from t to
// target (up to ordering) — every delete names a row of t whose key is
// absent from target, every insert a row of target whose key is absent
// from t, and every update matches both sides exactly. Receivers of wire
// changesets use it before delta-propagating a put: a non-minimal
// changeset (e.g. a delete+insert pair for an unchanged row) reproduces
// the right table under Apply yet would corrupt hidden source columns
// when replayed through a lens's structural-edit policies.
func (t *Table) ValidateDiff(target *Table, cs Changeset) error {
	bad := func(kind string, key Row) error {
		return fmt.Errorf("%w: non-minimal changeset: %s of key %v", ErrSchemaInvalid, kind, key)
	}
	for _, r := range cs.Deleted {
		key := t.KeyValues(r)
		old, ok := t.Get(key)
		if !ok || !old.Equal(r) || target.Has(key) {
			return bad("delete", key)
		}
	}
	for _, r := range cs.Inserted {
		key := t.KeyValues(r)
		now, ok := target.Get(key)
		if !ok || !now.Equal(r) || t.Has(key) {
			return bad("insert", key)
		}
	}
	for _, u := range cs.Updated {
		key := t.KeyValues(u.After)
		old, okOld := t.Get(key)
		now, okNew := target.Get(key)
		if !okOld || !okNew || !old.Equal(u.Before) || !now.Equal(u.After) {
			return bad("update", key)
		}
	}
	return nil
}

// Apply mutates the table by applying the changeset, as one edit: each
// tree node the changed rows reach is copied once (see TableBuilder),
// and the table is left as it was when the changeset does not apply.
// Applying the result of a.Diff(b) to a clone of a yields a table equal
// to b. The table takes ownership of the changeset's rows; changesets
// are immutable transfer objects and must not be mutated after Apply.
func (t *Table) Apply(cs Changeset) error {
	ed := t.editInto(t)
	for _, r := range cs.Deleted {
		if err := ed.Delete(t.KeyValues(r)); err != nil {
			return fmt.Errorf("apply delete: %w", err)
		}
	}
	for _, u := range cs.Updated {
		if err := ed.Upsert(u.After); err != nil {
			return fmt.Errorf("apply update: %w", err)
		}
	}
	for _, r := range cs.Inserted {
		if err := ed.Insert(r); err != nil {
			return fmt.Errorf("apply insert: %w", err)
		}
	}
	ed.Table()
	return nil
}
