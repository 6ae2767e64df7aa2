package reldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Database is a named collection of tables with a lock-free read path.
// Each peer in the sharing architecture owns one Database holding its full
// records (sources) and its materialized shared views.
//
// Concurrency model: every table name maps to a slot holding an atomic
// pointer to an immutable *Table snapshot. A table stored in a slot is
// never mutated in place — all mutation goes through the commit path
// (WithTable / PutTable), which clones the current snapshot (O(1) under
// copy-on-write), applies the change to the private clone, and atomically
// publishes it. Readers (Table, Snapshot, the peers' fetch handlers)
// therefore see consistent snapshots with a single atomic load and never
// contend with writers or with readers of other tables; writers to
// different tables never contend with each other. The name→slot map itself
// is copy-on-write too: Create/Drop/first-Put replace the whole map under
// a short mutex, so lookups are one atomic load plus a map read.
type Database struct {
	name string
	// tables points to the current immutable name→slot map. Replaced
	// wholesale by structural changes (create/drop/first put of a name);
	// never mutated in place.
	tables atomic.Pointer[map[string]*tableSlot]
	// mapMu serializes map replacement. Slot commits do not take it.
	mapMu sync.Mutex
}

// tableSlot is one table's commit point: a mutex serializing writers and
// an atomic pointer readers load without locking.
type tableSlot struct {
	mu  sync.Mutex
	cur atomic.Pointer[Table]
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	d := &Database{name: name}
	m := make(map[string]*tableSlot)
	d.tables.Store(&m)
	return d
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// slot returns the commit slot for name, or nil.
func (d *Database) slot(name string) *tableSlot {
	return (*d.tables.Load())[name]
}

// slotOrCreate returns the slot for name, installing a fresh one (via a
// copy-on-write map swap) if the name is new.
func (d *Database) slotOrCreate(name string) *tableSlot {
	if s := d.slot(name); s != nil {
		return s
	}
	d.mapMu.Lock()
	defer d.mapMu.Unlock()
	old := *d.tables.Load()
	if s, ok := old[name]; ok {
		return s
	}
	next := make(map[string]*tableSlot, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	s := &tableSlot{}
	next[name] = s
	d.tables.Store(&next)
	return s
}

// PutTable installs (or replaces) a table under its schema name. The
// stored snapshot is independent of t: the caller may keep mutating its
// instance without affecting the database (and vice versa).
func (d *Database) PutTable(t *Table) {
	s := d.slotOrCreate(t.Name())
	snap := t.Clone()
	s.mu.Lock()
	s.cur.Store(snap)
	s.mu.Unlock()
}

// Table returns an independent snapshot of the named table, or an error
// if it does not exist. The snapshot is O(1) (copy-on-write) and safe to
// read or mutate without further locking; changes are not reflected in
// the database until committed back via PutTable or made through
// WithTable.
func (d *Database) Table(name string) (*Table, error) {
	if s := d.slot(name); s != nil {
		if t := s.cur.Load(); t != nil {
			return t.Clone(), nil
		}
	}
	return nil, fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
}

// Drop removes the named table.
func (d *Database) Drop(name string) error {
	d.mapMu.Lock()
	defer d.mapMu.Unlock()
	old := *d.tables.Load()
	s, ok := old[name]
	if !ok || s.cur.Load() == nil {
		return fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
	}
	next := make(map[string]*tableSlot, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	d.tables.Store(&next)
	return nil
}

// TableNames returns the sorted names of all tables.
func (d *Database) TableNames() []string {
	m := *d.tables.Load()
	out := make([]string, 0, len(m))
	for n, s := range m {
		if s.cur.Load() != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// WithTable atomically commits a mutation to the named table: fn runs on
// a private clone of the current snapshot while holding the table's
// commit lock, and the clone is published only if fn succeeds — an error
// aborts the commit and leaves the table unchanged. Readers are never
// blocked; they keep seeing the previous snapshot until the commit lands.
// Writers to other tables proceed in parallel.
func (d *Database) WithTable(name string, fn func(*Table) error) error {
	s := d.slot(name)
	if s == nil {
		return fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
	}
	work := cur.Clone()
	if err := fn(work); err != nil {
		return err
	}
	s.cur.Store(work)
	return nil
}

// ReplaceTable atomically replaces the named table: fn receives the
// current immutable snapshot (it must not mutate it) and returns the
// replacement, which is published under the table's commit lock. It is
// the read-modify-write primitive for callers that derive a whole new
// table from the current one (a lens put embedding an incoming view) —
// two such replacements of one table serialize instead of overwriting
// each other, which a snapshot-then-PutTable sequence would.
func (d *Database) ReplaceTable(name string, fn func(*Table) (*Table, error)) error {
	s := d.slot(name)
	if s == nil {
		return fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return fmt.Errorf("%w: %s in database %s", ErrNoSuchTable, name, d.name)
	}
	next, err := fn(cur)
	if err != nil {
		return err
	}
	s.cur.Store(next.Clone())
	return nil
}
