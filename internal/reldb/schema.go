package reldb

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string `json:"name"`
	Type Kind   `json:"type"`
	// Nullable permits NULL in this column. Key columns are never nullable.
	Nullable bool `json:"nullable,omitempty"`
}

// Schema describes a table: its name, ordered columns, and primary key.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	// Key lists the primary-key column names, in key order. Every table in
	// the system is keyed; key-based row alignment is what makes the BX put
	// direction well behaved.
	Key []string `json:"key"`
}

// Errors reported by schema and table operations.
var (
	ErrNoSuchColumn  = errors.New("reldb: no such column")
	ErrNoSuchTable   = errors.New("reldb: no such table")
	ErrDuplicateKey  = errors.New("reldb: duplicate key")
	ErrKeyNotFound   = errors.New("reldb: key not found")
	ErrSchemaInvalid = errors.New("reldb: invalid schema")
	ErrTypeMismatch  = errors.New("reldb: type mismatch")
	ErrKeyImmutable  = errors.New("reldb: key columns are immutable in update")
)

// Validate checks structural invariants: non-empty name, at least one
// column, unique column names, a non-empty key whose columns all exist and
// are not nullable.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty table name", ErrSchemaInvalid)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("%w: table %s has no columns", ErrSchemaInvalid, s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("%w: table %s has an unnamed column", ErrSchemaInvalid, s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: table %s repeats column %s", ErrSchemaInvalid, s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(s.Key) == 0 {
		return fmt.Errorf("%w: table %s has no primary key", ErrSchemaInvalid, s.Name)
	}
	seenKey := make(map[string]bool, len(s.Key))
	for _, k := range s.Key {
		idx := s.ColumnIndex(k)
		if idx < 0 {
			return fmt.Errorf("%w: table %s key column %s does not exist", ErrSchemaInvalid, s.Name, k)
		}
		if seenKey[k] {
			return fmt.Errorf("%w: table %s repeats key column %s", ErrSchemaInvalid, s.Name, k)
		}
		seenKey[k] = true
		if s.Columns[idx].Nullable {
			return fmt.Errorf("%w: table %s key column %s must not be nullable", ErrSchemaInvalid, s.Name, k)
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the named column exists.
func (s Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// ColumnNames returns the column names in declaration order.
func (s Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// KeyIndexes returns the column positions of the primary-key columns.
func (s Schema) KeyIndexes() []int {
	out := make([]int, len(s.Key))
	for i, k := range s.Key {
		out[i] = s.ColumnIndex(k)
	}
	return out
}

// ParseKey reads a primary key in the comma-separated text syntax
// ("v1,v2"), typing each part by its key column's kind in s (parseValue).
// The HTTP read routes, the daemon shell and the light client all type
// keys here, so "007" names the int key 7 and "42" the string key "42"
// exactly when the schema says so. A string key part cannot contain a
// comma.
func ParseKey(raw string, s Schema) (Row, error) {
	if raw == "" {
		return nil, fmt.Errorf("missing key parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != len(s.Key) {
		return nil, fmt.Errorf("key has %d parts, schema keys on %d columns", len(parts), len(s.Key))
	}
	key := make(Row, len(parts))
	for i, p := range parts {
		c := s.ColumnIndex(s.Key[i])
		if c < 0 {
			return nil, fmt.Errorf("key column %s not in schema", s.Key[i])
		}
		v, err := parseValue(p, s.Columns[c].Type)
		if err != nil {
			return nil, fmt.Errorf("key column %s: %w", s.Key[i], err)
		}
		key[i] = v
	}
	return key, nil
}

// IsKeyColumn reports whether name is one of the primary-key columns.
func (s Schema) IsKeyColumn(name string) bool {
	for _, k := range s.Key {
		if k == name {
			return true
		}
	}
	return false
}

// Equal reports whether two schemas are structurally identical, ignoring
// the table name (so a view shipped between peers compares equal to the
// local replica even if named differently).
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) || len(s.Key) != len(o.Key) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range s.Key {
		if s.Key[i] != o.Key[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := Schema{Name: s.Name}
	out.Columns = append([]Column(nil), s.Columns...)
	out.Key = append([]string(nil), s.Key...)
	return out
}

// Rename returns a copy of the schema with a different table name.
func (s Schema) Rename(name string) Schema {
	out := s.Clone()
	out.Name = name
	return out
}

// Project returns the schema restricted to cols (in the given order). The
// resulting key is `key`; every key column must be among cols. An empty key
// inherits the source key when all source key columns are retained, and is
// an error otherwise.
func (s Schema) Project(name string, cols []string, key []string) (Schema, error) {
	out := Schema{Name: name, Columns: make([]Column, 0, len(cols))}
	for _, c := range cols {
		idx := s.ColumnIndex(c)
		if idx < 0 {
			return Schema{}, fmt.Errorf("%w: %s (projecting %s)", ErrNoSuchColumn, c, s.Name)
		}
		out.Columns = append(out.Columns, s.Columns[idx])
	}
	if len(key) == 0 {
		for _, k := range s.Key {
			if !contains(cols, k) {
				return Schema{}, fmt.Errorf("%w: projection of %s drops key column %s and declares no new key", ErrSchemaInvalid, s.Name, k)
			}
		}
		key = append([]string(nil), s.Key...)
	}
	out.Key = append([]string(nil), key...)
	// The new key columns may have been nullable in the source; keys are
	// never nullable, so clear the flag on them.
	for _, k := range out.Key {
		if i := out.ColumnIndex(k); i >= 0 {
			out.Columns[i].Nullable = false
		}
	}
	if err := out.Validate(); err != nil {
		return Schema{}, err
	}
	return out, nil
}

// SchemaSumOf returns the digest a table built from s reports as
// SchemaSum — the schema half of the table-hash preimage (the table
// name is excluded, like Table.Hash). Light verifiers recompute it from
// a served schema to bind that schema to a hash-committed SchemaSum
// before trusting its key-column layout.
func SchemaSumOf(s Schema) [32]byte {
	var buf [256]byte
	return sha256.Sum256(appendSchemaCanonical(buf[:0], s))
}

// checkRow verifies that the row matches the schema arity, types, and
// nullability constraints.
func (s Schema) checkRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("%w: table %s expects %d values, got %d", ErrTypeMismatch, s.Name, len(s.Columns), len(r))
	}
	for i, c := range s.Columns {
		v := r[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("%w: table %s column %s is not nullable", ErrTypeMismatch, s.Name, c.Name)
			}
			continue
		}
		if v.Kind() != c.Type {
			return fmt.Errorf("%w: table %s column %s wants %s, got %s", ErrTypeMismatch, s.Name, c.Name, c.Type, v.Kind())
		}
	}
	return nil
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
