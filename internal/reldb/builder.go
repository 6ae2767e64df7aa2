package reldb

import (
	"fmt"

	"medshare/internal/reldb/pmap"
)

// TableBuilder constructs a fresh table from a stream of rows in O(n)
// when the rows arrive in ascending primary-key order — which is the
// natural case everywhere a table is rebuilt from a canonical scan of
// another (relational operators, lens puts): the persistent storage
// iterates in key order, so a same-keyed rebuild streams ascending by
// construction. The builder sits directly on a pmap.Transient: ascending
// appends take the O(1) right-spine path, row entries and tree nodes
// come from slab arenas instead of one heap allocation each (the
// overhead that used to make whole-view rebuilds ~1.8x their
// pre-persistent cost), and if the stream ever goes out of order the
// transient degrades transparently to per-row inserts, so callers never
// need to know which case they are in.
//
// Append takes ownership of its row (InsertOwned semantics: the caller
// must not mutate it afterwards). Call Table exactly once when done.
type TableBuilder struct {
	t  *Table
	tr *pmap.Transient[*rowEntry]
	// entries is the current rowEntry arena chunk; entryCap is the next
	// chunk's size (geometric growth).
	entries  []rowEntry
	entryCap int
	keyBuf   []byte
	done     bool
}

// entrySlabMin and entrySlabMax bound the rowEntry arena chunk sizes
// (geometric growth: tiny tables pin a handful of spare entries, bulk
// builds amortize 128 ways).
const (
	entrySlabMin = 8
	entrySlabMax = 128
)

// NewTableBuilder returns a builder for a table with the given schema.
// The built table carries unkeyed priorities; the sharing layer reseeds
// stored replicas afterwards (Table.Reseeded).
func NewTableBuilder(schema Schema) (*TableBuilder, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	return &TableBuilder{t: t, tr: pmap.NewTransient[*rowEntry](nil)}, nil
}

// newEntry hands out one rowEntry from the slab.
func (b *TableBuilder) newEntry(r Row) *rowEntry {
	if len(b.entries) == 0 {
		if b.entryCap < entrySlabMin {
			b.entryCap = entrySlabMin
		}
		b.entries = make([]rowEntry, b.entryCap)
		if b.entryCap < entrySlabMax {
			b.entryCap *= 2
		}
	}
	e := &b.entries[0]
	b.entries = b.entries[1:]
	e.row = r
	return e
}

// Append adds an owned row, validating it against the schema and
// rejecting duplicate keys exactly like Table.InsertOwned.
func (b *TableBuilder) Append(r Row) error {
	if err := b.t.schema.checkRow(r); err != nil {
		return err
	}
	return b.appendChecked(r)
}

// appendChecked is Append without the schema check (for callers that
// already validated, e.g. rows coming out of a same-schema table).
func (b *TableBuilder) appendChecked(r Row) error {
	b.keyBuf = b.t.AppendKeyOf(b.keyBuf[:0], r)
	if !b.tr.Insert(string(b.keyBuf), b.newEntry(r)) {
		return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, b.t.schema.Name, b.t.KeyValues(r))
	}
	return nil
}

// Peek returns the row appended under the ordered key encoding k, if
// any. It sees every appended row immediately, which is what lets
// operators that probe their own partial output (projection's
// functionality check) run on top of the builder.
func (b *TableBuilder) Peek(k []byte) (Row, bool) {
	e, ok := b.tr.GetBytes(k)
	if !ok {
		return nil, false
	}
	return e.row, true
}

// Table finalizes and returns the built table. The builder must not be
// used afterwards.
func (b *TableBuilder) Table() *Table {
	if b.done {
		panic("reldb: TableBuilder.Table called twice")
	}
	b.done = true
	b.t.rows = b.tr.Freeze()
	b.tr = nil
	return b.t
}
