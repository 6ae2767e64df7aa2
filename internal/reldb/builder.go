package reldb

import (
	"fmt"

	"medshare/internal/reldb/pmap"
)

// TableBuilder is the one editor: the only code that changes a table's
// rows and secondary indexes. It starts from an existing table
// ((*Table).Edit) or from the empty one (NewTableBuilder), takes rows
// through Insert, Upsert and Delete, answers Get, GetKeyBytes and
// RowsByCols from the rows as edited so far, and hands the result out
// once through Table. The table it started from is never written by
// Edit; Table.Insert, Update, Upsert, Delete and Apply are edits whose
// result lands in the table itself, and only when every operation
// succeeded.
//
// The editor sits on a pmap transient, so the tree is edited in place
// until Table freezes it: a write that reaches a node the edit has not
// touched yet copies it once, and every later write through that node
// changes the copy. A k-row changeset therefore copies the union of its
// k root paths — each touched node once — where k one-row edits
// (Table.Upsert) would copy the top of the tree k times. A replaced row keeps its
// node's priority, so no hashing is done for it. Secondary indexes ride
// along, each through its own transient, and come out of Table
// maintained in a newly published registry: no registry is written once
// published.
//
// Over the empty table (NewTableBuilder), rows that arrive in ascending
// primary-key order — every rebuild from a canonical scan of another
// table — take the transient's O(1) right-spine path, and tree nodes and
// row entries come from slab arenas instead of one heap allocation
// each; an out-of-order row degrades transparently to an ordinary
// insert. An edit of an existing table never uses the arenas: a stale
// node in a live slab chunk would keep the older versions of the tree
// it points into alive.
//
// Every row handed to the editor becomes the table's without a copy: the
// caller must not mutate it afterwards. Rows it returns are shared
// references and must be treated as read-only. An editor is single-owner;
// call Table exactly once when done.
type TableBuilder struct {
	// t is the result: schema from the start, rows and indexes at Table.
	t *Table
	// tr is the row tree being edited, nil once Table froze it.
	tr   *pmap.Transient[*rowEntry]
	secs []secEdit
	// arena is the rowEntry arena, over the empty table only.
	arena *entryArena
}

// entryArena hands out rowEntries from chunks: entries is the current
// chunk, next the following chunk's size (geometric growth).
type entryArena struct {
	entries []rowEntry
	next    int
}

// secEdit is one secondary index riding along an edit.
type secEdit struct {
	name string
	ix   *secIndex // the edited table's index: its columns
	tr   *pmap.Transient[struct{}]
}

// entrySlabMin and entrySlabMax bound the rowEntry arena chunk sizes
// (geometric growth: tiny tables pin a handful of spare entries, bulk
// builds amortize 128 ways).
const (
	entrySlabMin = 8
	entrySlabMax = 128
)

// NewTableBuilder returns an editor over the empty table with the given
// schema. The built table carries unkeyed priorities; the sharing layer
// reseeds stored replicas afterwards (Table.Reseeded).
func NewTableBuilder(schema Schema) (*TableBuilder, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	return &TableBuilder{t: t, tr: pmap.NewTransient[*rowEntry](nil), arena: &entryArena{}}, nil
}

// Edit returns an editor whose starting state is t, in O(1) plus one
// transient per built secondary index. t itself is never written.
func (t *Table) Edit() *TableBuilder {
	// Schemas are immutable once inside a table, so the result shares t's
	// (Renamed changes only the name, in its own copy).
	b := t.editInto(&Table{schema: t.schema, keyIdx: t.keyIdx, schemaSum: t.schemaSum})
	return &b
}

// editInto is Edit with the result landing in out, a table with t's
// schema whose rows and indexes Table overwrites; the in-place mutators
// (Insert, Update, Upsert, Delete, Apply) pass t itself. It returns the
// editor by value, so theirs can live on the stack.
func (t *Table) editInto(out *Table) TableBuilder {
	b := TableBuilder{t: out, tr: t.rows.Edit()}
	if secs := t.secondary.Load(); secs != nil {
		b.secs = make([]secEdit, 0, len(*secs))
		for name, ix := range *secs {
			b.secs = append(b.secs, secEdit{name: name, ix: ix, tr: ix.entries.Edit()})
		}
	}
	return b
}

// newEntry makes one rowEntry: from the slab over the empty table, as
// its own heap object in an edit.
func (b *TableBuilder) newEntry(r Row) *rowEntry {
	a := b.arena
	if a == nil {
		return &rowEntry{row: r}
	}
	if len(a.entries) == 0 {
		if a.next < entrySlabMin {
			a.next = entrySlabMin
		}
		a.entries = make([]rowEntry, a.next)
		if a.next < entrySlabMax {
			a.next *= 2
		}
	}
	e := &a.entries[0]
	a.entries = a.entries[1:]
	e.row = r
	return e
}

// rowKey encodes r's primary key, through a stack buffer.
func (b *TableBuilder) rowKey(r Row) string {
	var buf [64]byte
	return string(b.t.AppendKeyOf(buf[:0], r))
}

// Get returns the row with the given key tuple as edited so far.
func (b *TableBuilder) Get(key Row) (Row, bool) {
	e, ok := b.tr.Get(encodeKey(key))
	if !ok {
		return nil, false
	}
	return e.row, true
}

// GetKeyBytes is Get by the ordered key encoding (Table.AppendKeyOf).
func (b *TableBuilder) GetKeyBytes(k []byte) (Row, bool) {
	e, ok := b.tr.GetBytes(k)
	if !ok {
		return nil, false
	}
	return e.row, true
}

// Insert adds an owned row, rejecting schema violations and duplicate
// keys exactly like Table.Insert.
func (b *TableBuilder) Insert(r Row) error {
	if err := b.t.schema.checkRow(r); err != nil {
		return err
	}
	k := b.rowKey(r)
	if !b.tr.Insert(k, b.newEntry(r)) {
		return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, b.t.schema.Name, b.t.KeyValues(r))
	}
	for _, s := range b.secs {
		s.tr.Set(s.ix.secKey(r)+k, struct{}{})
	}
	return nil
}

// Upsert inserts an owned row, or replaces the row with the same key.
func (b *TableBuilder) Upsert(r Row) error {
	if err := b.t.schema.checkRow(r); err != nil {
		return err
	}
	k := b.rowKey(r)
	old, replaced := b.tr.Set(k, b.newEntry(r))
	for _, s := range b.secs {
		kn := s.ix.secKey(r)
		if replaced {
			ko := s.ix.secKey(old.row)
			if ko == kn {
				continue
			}
			s.tr.Delete(ko + k)
		}
		s.tr.Set(kn+k, struct{}{})
	}
	return nil
}

// Delete removes the row with the given key tuple.
func (b *TableBuilder) Delete(key Row) error {
	k := encodeKey(key)
	old, ok := b.tr.Delete(k)
	if !ok {
		return fmt.Errorf("%w: table %s key %v", ErrKeyNotFound, b.t.schema.Name, key)
	}
	for _, s := range b.secs {
		s.tr.Delete(s.ix.secKey(old.row) + k)
	}
	return nil
}

// RowsByCols is Table.RowsByCols over the rows as edited so far. Only an
// index the edited table had built rides along an edit: build it before
// Edit (Table.EnsureIndex).
func (b *TableBuilder) RowsByCols(cols []string, key Row) ([]Row, error) {
	name := secName(cols)
	for _, s := range b.secs {
		if s.name == name {
			return rowsByPrefix(s.tr, b.tr, b.t.schema.Name, cols, key)
		}
	}
	return nil, fmt.Errorf("%w: no index on %v of %s rides along this edit", ErrSchemaInvalid, cols, b.t.schema.Name)
}

// Table freezes the edit and returns the edited table. The editor must
// not be used afterwards.
func (b *TableBuilder) Table() *Table {
	if b.tr == nil {
		panic("reldb: TableBuilder.Table called twice")
	}
	b.t.rows = b.tr.Freeze()
	b.tr, b.arena = nil, nil
	if len(b.secs) > 0 {
		reg := make(map[string]*secIndex, len(b.secs))
		for _, s := range b.secs {
			reg[s.name] = &secIndex{cols: s.ix.cols, entries: s.tr.Freeze()}
		}
		b.t.secondary.Store(&reg)
		b.secs = nil
	}
	return b.t
}

// finish ends a one-operation edit: the edited table when op, the
// operation's error, is nil; otherwise the edit is dropped and the table
// stays as it was.
func (b *TableBuilder) finish(op error) error {
	if op != nil {
		return op
	}
	b.Table()
	return nil
}
