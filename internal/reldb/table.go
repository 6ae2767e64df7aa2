package reldb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

// Table is an in-memory relation: a schema plus rows stored in a
// persistent (structurally shared) ordered map keyed by the
// order-preserving encoding of each row's primary key. In-order
// traversal of that map *is* canonical (key-sorted) row order, so two
// tables with the same contents behave identically regardless of
// mutation history and no sorted-order cache exists to invalidate.
//
// Storage is persistent rather than copy-on-write: Clone shares the row
// map with the original in O(1), and every mutation path-copies only the
// O(log n) spine from the root to the touched key — there is no
// "unshare the whole table" step, so a k-row delta costs O(k log n)
// regardless of how many snapshots share the storage. Rows are immutable
// once inside a table — accessors (Rows, RowsCanonical, Get, Scan)
// return shared references that callers must treat as read-only; all
// mutation goes through Insert / Update / Upsert / Delete, which replace
// whole rows.
//
// Table is not safe for concurrent mutation; Database serializes access.
// Concurrent *readers* of one shared snapshot are safe, including the
// lazy hash and secondary-index builds.
type Table struct {
	schema Schema
	// keyIdx caches schema.KeyIndexes(); the schema is immutable after
	// construction (Renamed changes only the name).
	keyIdx []int
	// rows maps the ordered primary-key encoding to the row entry. The
	// map's canonical (history-independent) treap shape plus per-node
	// cached subtree digests make Table.Hash a Merkle root: no hash
	// state lives on the Table itself — digests ride on the shared tree
	// nodes, are built lazily by the first Hash() call, and a k-row
	// delta leaves exactly the O(k log n) path-copied nodes uncached for
	// the next Hash() to fill in. See Hash, RowsRoot, ProveRow.
	rows pmap.Map[*rowEntry]
	// schemaSum digests the canonical schema encoding (name excluded).
	schemaSum [32]byte
	// secondary points to the current set of secondary indexes, keyed by
	// the joined column names. Built lazily by the first RowsByCols call
	// over a column set (read-only callers may share one snapshot, so
	// builds publish copy-on-write under secMu) and maintained
	// incrementally by every mutator afterwards — each index is itself a
	// persistent map, so maintenance is O(log n) path copying, never a
	// rebuild.
	secondary atomic.Pointer[map[string]*secIndex]
	secMu     sync.Mutex
	// secOwned marks the current secondary registry (the map and its
	// secIndex structs, not the persistent trees inside) as private to
	// this instance: mutators may update it in place. Clone clears it on
	// both sides — the registry is then shared, and whichever side
	// mutates next copies it first (the trees themselves are persistent
	// and always shared safely). Atomic because concurrent snapshots may
	// race to clear it on one shared instance.
	secOwned atomic.Bool
}

// rowEntry is one stored row plus its lazily computed canonical digest.
// Entries are immutable apart from the idempotent digest cache and are
// shared structurally between every snapshot containing the row.
type rowEntry struct {
	row Row
	// dig caches rowDigest(row). Atomic because concurrent readers of a
	// shared snapshot may both run the lazy hash build; the digest is a
	// pure function of the row, so racing stores write the same value.
	dig atomic.Pointer[[32]byte]
}

// digest returns (computing and caching on first use) the row's
// canonical leaf digest — merkle.HashLeaf over the canonical row
// encoding, the same domain-separated leaf construction the block-level
// Merkle trees use, so table-row and block hashing cannot be spliced
// into each other.
func (e *rowEntry) digest() [32]byte {
	if p := e.dig.Load(); p != nil {
		return *p
	}
	d := rowDigest(e.row)
	e.dig.Store(&d)
	return d
}

// entryRow projects a stored entry to its row; top-level so the
// row-accessor hot paths can pass it to pmap.AppendMapped without a
// closure allocation.
func entryRow(e *rowEntry) Row { return e.row }

// secIndex maps a composite key — the ordered encoding of a non-key
// column tuple followed by the ordered primary-key encoding — to
// presence. A group lookup is a prefix scan (the composite encodings of
// one secondary tuple are contiguous and ordered by primary key), and
// index maintenance is O(log n) per touched row through the persistent
// map, shared structurally across snapshots exactly like the row
// storage.
type secIndex struct {
	cols    []int // column positions forming the secondary key
	entries pmap.Map[struct{}]
}

// rowDigest hashes a row's canonical encoding as a Merkle leaf.
func rowDigest(r Row) [32]byte {
	var buf [192]byte
	return merkle.HashLeaf(r.AppendCanonical(buf[:0]))
}

// rowEntryLeaf adapts rowEntry.digest to pmap's Merkle leaf signature.
// The storage key is not hashed separately: it is a pure function of the
// row's primary-key columns, which the canonical row encoding commits
// to. Top-level so digest walks pass it without a closure allocation.
func rowEntryLeaf(_ string, e *rowEntry) pmap.Hash { return e.digest() }

// appendSchemaCanonical appends the deterministic schema encoding (columns
// and key; the table name is deliberately excluded — see AppendCanonical).
func appendSchemaCanonical(dst []byte, s Schema) []byte {
	for _, c := range s.Columns {
		dst = append(dst, []byte(c.Name)...)
		dst = append(dst, 0, byte(c.Type))
		if c.Nullable {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = append(dst, 0)
	for _, k := range s.Key {
		dst = append(dst, []byte(k)...)
		dst = append(dst, 0)
	}
	dst = append(dst, 0)
	return dst
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	sc := schema.Clone()
	var buf [256]byte
	return &Table{
		schema:    sc,
		keyIdx:    sc.KeyIndexes(),
		schemaSum: sha256.Sum256(appendSchemaCanonical(buf[:0], sc)),
	}, nil
}

// MustNewTable is NewTable that panics on invalid schemas; intended for
// statically known schemas in tests and examples.
func MustNewTable(schema Schema) *Table {
	t, err := NewTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return t.schema.Clone() }

// SchemaSum returns the digest of the canonical schema encoding (the
// table name excluded, like Hash) — a cheap memo key for callers that
// cache per-schema derived state (the join lens's column plan).
func (t *Table) SchemaSum() [32]byte { return t.schemaSum }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows.Len() }

// keyOf extracts the ordered (storage) key encoding from a full row.
func (t *Table) keyOf(r Row) string {
	var buf []byte
	for _, i := range t.keyIdx {
		buf = r[i].AppendOrdered(buf)
	}
	return string(buf)
}

// KeyValues extracts the primary-key values from a full row, in key order.
func (t *Table) KeyValues(r Row) Row {
	out := make(Row, len(t.keyIdx))
	for i, j := range t.keyIdx {
		out[i] = r[j]
	}
	return out
}

// AppendKeyOf appends the ordered key encoding of a full row to dst, the
// same encoding GetKeyBytes looks up (Value.AppendOrdered over the key
// columns). Hot paths use it to probe the storage without materializing
// a key tuple.
func (t *Table) AppendKeyOf(dst []byte, r Row) []byte {
	for _, i := range t.keyIdx {
		dst = r[i].AppendOrdered(dst)
	}
	return dst
}

// encodeKey encodes a key tuple (values in key order) with the ordered
// storage encoding.
func encodeKey(key Row) string {
	var buf []byte
	for _, v := range key {
		buf = v.AppendOrdered(buf)
	}
	return string(buf)
}

// Insert adds a row. It fails if the row violates the schema or duplicates
// an existing key. The row is cloned; the caller keeps ownership of r.
func (t *Table) Insert(r Row) error {
	if err := t.schema.checkRow(r); err != nil {
		return err
	}
	return t.insertOwned(r.Clone())
}

// InsertOwned adds a row without copying it: the table takes ownership,
// and the caller must never mutate r afterwards. It is the allocation-free
// insert for code that constructs rows it will not reuse (lens puts,
// relational operators, changeset application).
func (t *Table) InsertOwned(r Row) error {
	if err := t.schema.checkRow(r); err != nil {
		return err
	}
	return t.insertOwned(r)
}

func (t *Table) insertOwned(r Row) error {
	k := t.keyOf(r)
	if _, dup := t.rows.Get(k); dup {
		return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.schema.Name, t.KeyValues(r))
	}
	t.insertEntry(k, r)
	return nil
}

// insertEntry stores a fresh row under key k (known absent), maintaining
// the secondary indexes. No hash bookkeeping is needed: the Merkle
// digests live on the tree nodes, and the path copy leaves exactly the
// changed nodes uncached.
func (t *Table) insertEntry(k string, r Row) {
	e := &rowEntry{row: r}
	t.rows, _ = t.rows.Set(k, e)
	t.secAdd(r, k)
}

// MustInsert is Insert that panics on error; for tests and fixtures.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// Get returns the row with the given key tuple. The row is a shared
// reference and must be treated as read-only.
func (t *Table) Get(key Row) (Row, bool) {
	e, ok := t.rows.Get(encodeKey(key))
	if !ok {
		return nil, false
	}
	return e.row, true
}

// GetKeyBytes returns the row whose ordered key encoding equals k (as
// produced by AppendKeyOf or Value.AppendOrdered over the key tuple).
// The row is a shared reference and must be treated as read-only.
func (t *Table) GetKeyBytes(k []byte) (Row, bool) {
	e, ok := t.rows.GetBytes(k)
	if !ok {
		return nil, false
	}
	return e.row, true
}

// Has reports whether a row with the given key tuple exists.
func (t *Table) Has(key Row) bool {
	_, ok := t.rows.Get(encodeKey(key))
	return ok
}

// replaceEntry swaps the stored row under key k (already present, same
// primary key) for an owned replacement, maintaining the secondary
// indexes.
func (t *Table) replaceEntry(k string, old *rowEntry, r Row) {
	e := &rowEntry{row: r}
	t.rows, _ = t.rows.Set(k, e)
	t.secReplace(old.row, r, k)
}

// Update modifies the non-key columns named in set for the row with the
// given key. Attempting to set a key column is an error (delete and
// re-insert instead, which models the relational view of key changes).
func (t *Table) Update(key Row, set map[string]Value) error {
	k := encodeKey(key)
	old, ok := t.rows.Get(k)
	if !ok {
		return fmt.Errorf("%w: table %s key %v", ErrKeyNotFound, t.schema.Name, key)
	}
	updated := old.row.Clone()
	for col, v := range set {
		ci := t.schema.ColumnIndex(col)
		if ci < 0 {
			return fmt.Errorf("%w: %s (updating %s)", ErrNoSuchColumn, col, t.schema.Name)
		}
		if t.schema.IsKeyColumn(col) {
			return fmt.Errorf("%w: table %s column %s", ErrKeyImmutable, t.schema.Name, col)
		}
		updated[ci] = v
	}
	if err := t.schema.checkRow(updated); err != nil {
		return err
	}
	t.replaceEntry(k, old, updated)
	return nil
}

// Delete removes the row with the given key tuple.
func (t *Table) Delete(key Row) error {
	ks := encodeKey(key)
	e, ok := t.rows.Get(ks)
	if !ok {
		return fmt.Errorf("%w: table %s key %v", ErrKeyNotFound, t.schema.Name, key)
	}
	t.rows, _ = t.rows.Delete(ks)
	t.secRemove(e.row, ks)
	return nil
}

// Upsert inserts the row, or replaces the existing row with the same key.
// The row is cloned; the caller keeps ownership of r.
func (t *Table) Upsert(r Row) error {
	if err := t.schema.checkRow(r); err != nil {
		return err
	}
	return t.upsertOwned(r.Clone())
}

// UpsertOwned is Upsert without the defensive copy: the table takes
// ownership and the caller must never mutate r afterwards.
func (t *Table) UpsertOwned(r Row) error {
	if err := t.schema.checkRow(r); err != nil {
		return err
	}
	return t.upsertOwned(r)
}

func (t *Table) upsertOwned(r Row) error {
	k := t.keyOf(r)
	if old, ok := t.rows.Get(k); ok {
		t.replaceEntry(k, old, r)
		return nil
	}
	t.insertEntry(k, r)
	return nil
}

// RowsCanonical returns the rows sorted by primary key. The slice is
// fresh, but its rows are shared references that must be treated as
// read-only. The order falls out of the key-ordered storage — no sort,
// no cache to invalidate.
func (t *Table) RowsCanonical() []Row {
	return pmap.AppendMapped(t.rows, make([]Row, 0, t.rows.Len()), entryRow)
}

// Scan calls fn for each row in canonical key order (a shared reference:
// fn must not mutate it) until fn returns false or an error.
func (t *Table) Scan(fn func(Row) (bool, error)) error {
	var err error
	t.rows.Ascend(func(_ string, e *rowEntry) bool {
		cont, ferr := fn(e.row)
		if ferr != nil {
			err = ferr
			return false
		}
		return cont
	})
	return err
}

// Value returns the value of the named column for the row with key.
func (t *Table) Value(key Row, col string) (Value, error) {
	r, ok := t.Get(key)
	if !ok {
		return Value{}, fmt.Errorf("%w: table %s key %v", ErrKeyNotFound, t.schema.Name, key)
	}
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		return Value{}, fmt.Errorf("%w: %s", ErrNoSuchColumn, col)
	}
	return r[ci], nil
}

// Clone returns an independent copy of the table in O(1): the persistent
// row storage and secondary indexes are shared by pointer, and either
// side's later mutations path-copy only what they touch — no unsharing
// step ever copies the whole relation.
func (t *Table) Clone() *Table {
	out := &Table{
		schema:    t.schema.Clone(),
		keyIdx:    t.keyIdx,
		rows:      t.rows,
		schemaSum: t.schemaSum,
	}
	// No hash state to copy: Merkle digests live on the shared tree
	// nodes and follow the rows pointer into the clone.
	// The secondary registry is now shared: neither side may mutate it
	// in place until it re-copies (secOwn). out.secOwned starts false.
	t.secOwned.Store(false)
	out.secondary.Store(t.secondary.Load())
	return out
}

// Equal reports whether two tables have equal schemas (modulo name) and
// identical row sets.
func (t *Table) Equal(o *Table) bool {
	if o == nil || !t.schema.Equal(o.schema) || t.rows.Len() != o.rows.Len() {
		return false
	}
	// Equal cached Merkle roots prove equal contents (the root is a
	// canonical commitment); nothing is hashed here — the fast path only
	// fires when both sides were hashed already.
	if ra, ok := t.rows.CachedRoot(); ok {
		if rb, ok2 := o.rows.CachedRoot(); ok2 && ra == rb {
			return true
		}
	}
	// Structural comparison when either side has no cached root yet, or
	// when the roots differ for encodings that nevertheless compare
	// equal (NaN payload bits). Pointer-equal subtrees short-circuit and
	// the walk aborts at the first difference, so comparing a snapshot
	// against a lightly edited descendant is O(changed rows) and an
	// unequal pair stops at its first divergence.
	equal := true
	stop := func(string, *rowEntry) bool { equal = false; return false }
	pmap.Diff(t.rows, o.rows, sameRowEntry, stop, stop,
		func(string, *rowEntry, *rowEntry) bool { equal = false; return false },
	)
	return equal
}

// sameRowEntry reports whether two stored entries carry the same row —
// pointer equality first (shared structure), content second.
func sameRowEntry(a, b *rowEntry) bool {
	return a == b || a.row.Equal(b.row)
}

// RowsRoot returns the Merkle root of the row tree: a canonical SHA-256
// commitment to the table's contents (equal contents ⇔ equal root,
// independent of mutation history, because the underlying treap's shape
// is a pure function of the key set). The empty table's root is the
// all-zero hash. Membership proofs produced by ProveRow verify against
// this root.
//
// The root is cached per tree node and shared structurally: the first
// call digests every row once, and after a k-row delta only the
// O(k log n) path-copied nodes are re-hashed — so the root update after
// a one-row edit costs O(log n) regardless of table size. Safe for
// concurrent readers of one shared snapshot (racing digest computations
// store identical values).
func (t *Table) RowsRoot() [32]byte {
	return t.rows.MerkleRoot(rowEntryLeaf)
}

// Hash returns a SHA-256 digest committing to the schema and the rows
// via the Merkle row root. Two tables with the same schema and contents
// hash identically — regardless of insertion order or table name —
// which is what the sharing layer uses to confirm that peers converged
// after an update; unlike the additive multiset hash it replaced, the
// Merkle construction is collision-resistant even against adversarially
// chosen rows and supports per-row membership proofs (ProveRow). Cost
// follows RowsRoot: O(n) once, O(k log n) after a k-row delta, nothing
// for tables that are never hashed.
func (t *Table) Hash() [32]byte {
	root := t.RowsRoot()
	var buf [72]byte
	copy(buf[:32], t.schemaSum[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(t.rows.Len()))
	copy(buf[40:], root[:])
	return sha256.Sum256(buf[:])
}

// CachedHash returns the table hash and true when the Merkle root is
// already cached, without forcing the O(n) first build. Callers that
// merely want to reuse a hash-keyed cache (the composed-lens
// intermediate view memo) use it so cold tables don't pay for hashing
// they never asked for.
func (t *Table) CachedHash() ([32]byte, bool) {
	if _, ok := t.rows.CachedRoot(); !ok {
		return [32]byte{}, false
	}
	return t.Hash(), true
}

// Secondary indexes: RowsByCols answers "which rows carry this value
// tuple in these columns" in O(group size · log n) instead of a table
// scan. The delta-aware lens pipeline uses it to address source rows by
// a re-keyed view key (the paper's D23/D32 shares, keyed on medication
// rather than patient). An index is built lazily by the first lookup
// over its column set — an O(n log n) build paid once — and maintained
// incrementally by every mutator afterwards, exactly like the hash
// state; Clone shares it structurally.

// secName canonically joins a column list into an index-registry key.
func secName(cols []string) string {
	var buf []byte
	for _, c := range cols {
		buf = append(buf, c...)
		buf = append(buf, 0)
	}
	return string(buf)
}

// secKey encodes the secondary-key tuple of a full row with the ordered
// encoding (the prefix of the index's composite keys).
func (ix *secIndex) secKey(r Row) string {
	var buf []byte
	for _, c := range ix.cols {
		buf = r[c].AppendOrdered(buf)
	}
	return string(buf)
}

// secOwn returns a secondary registry this instance may mutate in
// place, or nil when no indexes are built. The first mutation after a
// Clone copies the shared registry (map and secIndex wrappers — the
// persistent trees inside stay shared); every later mutation reuses the
// owned copy, so steady-state index maintenance allocates nothing
// beyond the trees' own path copies.
func (t *Table) secOwn() map[string]*secIndex {
	secs := t.secondary.Load()
	if secs == nil {
		return nil
	}
	if t.secOwned.Load() {
		return *secs
	}
	next := make(map[string]*secIndex, len(*secs))
	for name, ix := range *secs {
		next[name] = &secIndex{cols: ix.cols, entries: ix.entries}
	}
	t.secondary.Store(&next)
	t.secOwned.Store(true)
	return next
}

// secAdd registers a newly inserted row (pk is its ordered key encoding)
// with every built index.
func (t *Table) secAdd(r Row, pk string) {
	for _, ix := range t.secOwn() {
		ix.entries, _ = ix.entries.Set(ix.secKey(r)+pk, struct{}{})
	}
}

// secRemove unregisters a deleted row from every built index.
func (t *Table) secRemove(r Row, pk string) {
	for _, ix := range t.secOwn() {
		ix.entries, _ = ix.entries.Delete(ix.secKey(r) + pk)
	}
}

// secReplace re-registers a row whose non-key columns changed in place.
// The primary key (pk, ordered encoding) is unchanged by contract
// (replaceEntry), so only indexes whose secondary tuple actually changed
// move their entry.
func (t *Table) secReplace(old, new Row, pk string) {
	secs := t.secondary.Load()
	if secs == nil {
		return
	}
	changed := false
	for _, ix := range *secs {
		if ix.secKey(old) != ix.secKey(new) {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	for _, ix := range t.secOwn() {
		ko, kn := ix.secKey(old), ix.secKey(new)
		if ko == kn {
			continue
		}
		entries, _ := ix.entries.Delete(ko + pk)
		entries, _ = entries.Set(kn+pk, struct{}{})
		ix.entries = entries
	}
}

// secIndexFor returns (building and publishing if needed) the index over
// cols. Safe for concurrent readers sharing one snapshot; mutation is
// still single-writer by the Table contract.
func (t *Table) secIndexFor(cols []string) (*secIndex, error) {
	name := secName(cols)
	if secs := t.secondary.Load(); secs != nil {
		if ix, ok := (*secs)[name]; ok {
			return ix, nil
		}
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci := t.schema.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s (indexing %s)", ErrNoSuchColumn, c, t.schema.Name)
		}
		idx[i] = ci
	}
	t.secMu.Lock()
	defer t.secMu.Unlock()
	if secs := t.secondary.Load(); secs != nil {
		if ix, ok := (*secs)[name]; ok {
			return ix, nil
		}
	}
	ix := &secIndex{cols: idx}
	t.rows.Ascend(func(pk string, e *rowEntry) bool {
		ix.entries, _ = ix.entries.Set(ix.secKey(e.row)+pk, struct{}{})
		return true
	})
	t.publishIndex(name, ix)
	return ix, nil
}

// publishIndex adds ix to the registry copy-on-write; the caller holds
// secMu. The table may be a snapshot shared by concurrent readers, so
// the fresh registry is published unowned: the next mutator (a single
// writer by contract) copies it before editing in place.
func (t *Table) publishIndex(name string, ix *secIndex) {
	next := map[string]*secIndex{name: ix}
	if old := t.secondary.Load(); old != nil {
		for k, v := range *old {
			if k != name {
				next[k] = v
			}
		}
	}
	t.secOwned.Store(false)
	t.secondary.Store(&next)
}

// EnsureIndex builds (if absent) the secondary index over cols without
// performing a lookup. Callers that are about to Clone and then query the
// clone prime the original first, so the index is shared into the clone
// (and from there into every later structurally shared descendant)
// instead of being rebuilt per clone.
func (t *Table) EnsureIndex(cols []string) error {
	_, err := t.secIndexFor(cols)
	return err
}

// EnsureIndexFrom is EnsureIndex for a table that equals old with cs
// applied (cs consistent, as from old.Diff(t) or a lens PutDelta): the
// index over cols is old's advanced by the changed rows, O(changed rows ·
// log n), instead of a walk of t. A snapshot taken from a lineage that
// never built the index (the database's, when only clones were queried)
// inherits it this way; old's index is built first if absent.
func (t *Table) EnsureIndexFrom(old *Table, cs Changeset, cols []string) error {
	name := secName(cols)
	if secs := t.secondary.Load(); secs != nil && (*secs)[name] != nil {
		return nil
	}
	oix, err := old.secIndexFor(cols)
	if err != nil {
		return err
	}
	ix := &secIndex{cols: oix.cols, entries: oix.entries}
	entry := func(r Row) string { return ix.secKey(r) + t.keyOf(r) }
	for _, r := range cs.Deleted {
		ix.entries, _ = ix.entries.Delete(entry(r))
	}
	for _, u := range cs.Updated {
		if ko, kn := entry(u.Before), entry(u.After); ko != kn {
			ix.entries, _ = ix.entries.Delete(ko)
			ix.entries, _ = ix.entries.Set(kn, struct{}{})
		}
	}
	for _, r := range cs.Inserted {
		ix.entries, _ = ix.entries.Set(entry(r), struct{}{})
	}
	t.secMu.Lock()
	defer t.secMu.Unlock()
	t.publishIndex(name, ix)
	return nil
}

// RowsByCols returns every row whose values in cols equal key (given in
// the same order), sorted by primary key. The rows are shared references
// and must be treated as read-only. The first call over a column set
// walks the table once to build the index; later calls — and every call
// on tables derived from this one by Clone — are O(matching rows ·
// log n), with the index maintained incrementally across mutations.
func (t *Table) RowsByCols(cols []string, key Row) ([]Row, error) {
	if len(key) != len(cols) {
		// A partial key tuple would prefix-match composite index entries
		// mid-secondary-key and misread the leftover bytes as a primary
		// key; reject the arity mismatch explicitly.
		return nil, fmt.Errorf("%w: RowsByCols on %s wants %d key values, got %d", ErrSchemaInvalid, t.schema.Name, len(cols), len(key))
	}
	ix, err := t.secIndexFor(cols)
	if err != nil {
		return nil, err
	}
	var prefix []byte
	for _, v := range key {
		prefix = v.AppendOrdered(prefix)
	}
	var out []Row
	var ixErr error
	ix.entries.AscendPrefix(string(prefix), func(k string, _ struct{}) bool {
		e, ok := t.rows.Get(k[len(prefix):])
		if !ok {
			ixErr = fmt.Errorf("reldb: secondary index on %s out of sync (missing pk)", t.schema.Name)
			return false
		}
		out = append(out, e.row)
		return true
	})
	if ixErr != nil {
		return nil, ixErr
	}
	return out, nil
}

// SameVersion reports whether o holds the very row tree t does (one
// root node, or both empty) — an O(1) identity check: any edit path-copies
// the root, so equal roots mean o was derived from t, or t from o, by
// snapshots alone.
func (t *Table) SameVersion(o *Table) bool { return t.rows.SameRoot(o.rows) }

// PrioritySecret returns the secret keying the table's treap priorities
// (nil for an ordinary unkeyed table). Read-only; callers must not
// mutate it.
func (t *Table) PrioritySecret() []byte { return t.rows.Seed().Secret() }

// Reseeded returns a table with identical contents whose row-tree shape
// (and therefore Merkle root) is derived under keyed treap priorities —
// HMAC-SHA-256 of each storage key under secret — instead of the
// default unkeyed SHA-256. An empty secret returns to unkeyed
// priorities. When the table already carries the requested secret the
// receiver is returned unchanged (O(1), the steady state of the sharing
// layer's seed choke points); otherwise the tree is rebuilt in one O(n)
// pass that reuses every row entry and its cached row digest — only the
// interior nodes (and their subtree digests) are shape-specific.
//
// Replicas that must agree on shape — and hence on Table.Hash and on
// anti-entropy subtree digests — must be reseeded with the same secret;
// the sharing layer derives one per share. A party without the secret
// cannot grind row keys for priority patterns that deepen the tree.
func (t *Table) Reseeded(secret []byte) *Table {
	if t.rows.Seed().Matches(secret) {
		return t
	}
	// Stream the rows straight into a seeded transient: the in-order
	// walk is strictly ascending, so every insert takes the O(1) spine
	// path — no intermediate key/entry slices, and the row entries (with
	// their cached digests) are shared with the receiver.
	tr := pmap.NewTransient[*rowEntry](pmap.NewSeed(secret))
	t.rows.Ascend(func(k string, e *rowEntry) bool {
		tr.Insert(k, e)
		return true
	})
	out := &Table{
		schema:    t.schema.Clone(),
		keyIdx:    t.keyIdx,
		rows:      tr.Freeze(),
		schemaSum: t.schemaSum,
	}
	// Secondary indexes are shape-independent content; share them like
	// Clone does (unowned on both sides until the next mutation).
	t.secOwned.Store(false)
	out.secondary.Store(t.secondary.Load())
	return out
}

// Renamed returns a copy of the table under a different name (O(1), like
// Clone). Peers use it to store an incoming shared payload under their
// local view name.
func (t *Table) Renamed(name string) *Table {
	out := t.Clone()
	out.schema.Name = name
	return out
}

// String renders a compact single-line description for logs.
func (t *Table) String() string {
	return fmt.Sprintf("table %s (%d cols, %d rows)", t.schema.Name, len(t.schema.Columns), t.rows.Len())
}
