package reldb

import (
	"fmt"
)

// Project returns a new table containing only cols, in the given order,
// named name and keyed by key (see Schema.Project for key inference).
// Duplicate projected rows collapse to one (set semantics); two source rows
// that agree on the new key but disagree elsewhere are an error, because
// such a projection is not a function of the key and cannot serve as a
// well-behaved view.
func (t *Table) Project(name string, cols []string, key []string) (*Table, error) {
	ps, err := t.schema.Project(name, cols, key)
	if err != nil {
		return nil, err
	}
	srcIdx := make([]int, len(cols))
	for i, c := range cols {
		srcIdx[i] = t.schema.ColumnIndex(c)
	}
	// Same-key projection (the common lens case, D13/D31): one output
	// row per source row under the same primary key, trivially
	// functional — rebuild on the source's tree shape instead of
	// re-keying and re-hashing every row.
	if sameKeyNames(ps.Key, t.schema.Key) {
		return t.RebuildAs(ps, func(r Row) (Row, error) {
			pr := make(Row, len(srcIdx))
			for i, si := range srcIdx {
				pr[i] = r[si]
			}
			return pr, nil
		})
	}
	bld, err := NewTableBuilder(ps)
	if err != nil {
		return nil, err
	}
	var keyBuf []byte
	var perr error
	t.rows.Ascend(func(_ string, e *rowEntry) bool {
		r := e.row
		pr := make(Row, len(cols))
		for i, si := range srcIdx {
			pr[i] = r[si]
		}
		keyBuf = bld.t.AppendKeyOf(keyBuf[:0], pr)
		if existing, ok := bld.GetKeyBytes(keyBuf); ok {
			if !existing.Equal(pr) {
				perr = fmt.Errorf("%w: projection %s is not functional on key %v", ErrSchemaInvalid, name, bld.t.KeyValues(pr))
				return false
			}
			return true
		}
		if err := bld.Insert(pr); err != nil {
			perr = err
			return false
		}
		return true
	})
	if perr != nil {
		return nil, perr
	}
	return bld.Table(), nil
}

// Select returns a new table named name containing the rows matching
// pred. Surviving rows keep their keys, so the result rides on the
// source's tree: kept runs are shared by pointer (cached digests
// included) and only the deletions' join paths allocate.
func (t *Table) Select(name string, pred Predicate) (*Table, error) {
	return t.RebuildAs(t.schema.Rename(name), func(r Row) (Row, error) {
		ok, err := pred.Eval(t.schema, r)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return r, nil
	})
}

// RenameColumns returns a copy of the table with columns renamed per the
// mapping old→new. Unmapped columns keep their names. Rows and keys are
// untouched, so the whole row tree is shared by pointer.
func (t *Table) RenameColumns(name string, mapping map[string]string) (*Table, error) {
	ns := t.schema.Rename(name)
	for old, nw := range mapping {
		i := ns.ColumnIndex(old)
		if i < 0 {
			return nil, fmt.Errorf("%w: %s (renaming in %s)", ErrNoSuchColumn, old, t.schema.Name)
		}
		ns.Columns[i].Name = nw
	}
	for i, k := range ns.Key {
		if nw, ok := mapping[k]; ok {
			ns.Key[i] = nw
		}
	}
	return t.RebuildAs(ns, func(r Row) (Row, error) { return r, nil })
}

// NaturalJoin joins t with o on their shared column names. The result
// contains t's columns followed by o's non-shared columns; its key is the
// union of both keys (deduplicated, t's order first). Matching is hash-based
// on the shared columns.
func (t *Table) NaturalJoin(name string, o *Table) (*Table, error) {
	var shared []string
	for _, c := range t.schema.Columns {
		if o.schema.HasColumn(c.Name) {
			oc := o.schema.Columns[o.schema.ColumnIndex(c.Name)]
			if oc.Type != c.Type {
				return nil, fmt.Errorf("%w: join column %s is %s in %s but %s in %s",
					ErrTypeMismatch, c.Name, c.Type, t.schema.Name, oc.Type, o.schema.Name)
			}
			shared = append(shared, c.Name)
		}
	}
	if len(shared) == 0 {
		return nil, fmt.Errorf("%w: natural join of %s and %s shares no columns", ErrSchemaInvalid, t.schema.Name, o.schema.Name)
	}

	ns := Schema{Name: name}
	ns.Columns = append(ns.Columns, t.schema.Columns...)
	var extra []string
	for _, c := range o.schema.Columns {
		if !t.schema.HasColumn(c.Name) {
			ns.Columns = append(ns.Columns, c)
			extra = append(extra, c.Name)
		}
	}
	for _, k := range t.schema.Key {
		ns.Key = append(ns.Key, k)
	}
	for _, k := range o.schema.Key {
		if !contains(ns.Key, k) {
			ns.Key = append(ns.Key, k)
		}
	}
	bld, err := NewTableBuilder(ns)
	if err != nil {
		return nil, err
	}

	// Hash o's rows by the shared-column tuple.
	oShared := make([]int, len(shared))
	for i, c := range shared {
		oShared[i] = o.schema.ColumnIndex(c)
	}
	buckets := make(map[string][]Row)
	o.rows.Ascend(func(_ string, e *rowEntry) bool {
		kt := make(Row, len(oShared))
		for i, j := range oShared {
			kt[i] = e.row[j]
		}
		ks := encodeKey(kt)
		buckets[ks] = append(buckets[ks], e.row)
		return true
	})

	tShared := make([]int, len(shared))
	for i, c := range shared {
		tShared[i] = t.schema.ColumnIndex(c)
	}
	oExtra := make([]int, len(extra))
	for i, c := range extra {
		oExtra[i] = o.schema.ColumnIndex(c)
	}

	// Left-key-preserving join (the join-lens case: o's key columns are
	// all part of t's key, so the result is keyed exactly like t): each
	// left row maps to at most one output row under its own key, so the
	// result can ride on t's tree via RebuildAs — unmatched rows drop,
	// matched rows splice in o's extra columns, and the bucket's last
	// match wins, exactly as the upsert path below resolves duplicates.
	if sameKeyNames(ns.Key, t.schema.Key) {
		return t.RebuildAs(ns, func(r Row) (Row, error) {
			kt := make(Row, len(tShared))
			for i, j := range tShared {
				kt[i] = r[j]
			}
			matches := buckets[encodeKey(kt)]
			if len(matches) == 0 {
				return nil, nil
			}
			if len(oExtra) == 0 {
				return r, nil // semijoin: the row survives verbatim, subtree shared
			}
			or := matches[len(matches)-1]
			joined := make(Row, 0, len(ns.Columns))
			joined = append(joined, r...)
			for _, j := range oExtra {
				joined = append(joined, or[j])
			}
			return joined, nil
		})
	}

	var jerr error
	t.rows.Ascend(func(_ string, e *rowEntry) bool {
		r := e.row
		kt := make(Row, len(tShared))
		for i, j := range tShared {
			kt[i] = r[j]
		}
		for _, or := range buckets[encodeKey(kt)] {
			joined := make(Row, 0, len(ns.Columns))
			joined = append(joined, r...)
			for _, j := range oExtra {
				joined = append(joined, or[j])
			}
			if err := bld.Upsert(joined); err != nil {
				jerr = err
				return false
			}
		}
		return true
	})
	if jerr != nil {
		return nil, jerr
	}
	return bld.Table(), nil
}
