// Package store is the durable, content-addressed node store behind
// every replica: a pluggable backend (memory | file) holding an
// append-only WAL + segment layer keyed by pmap subtree digest.
//
// Each logical commit appends only the row-tree nodes whose digests
// the log has never seen — the structural-sharing argument that makes
// Diff O(changed rows) makes persistence O(changed nodes) — followed
// by the metadata that interprets them (table roots, share metas,
// chain blocks, state checkpoints) and a commit marker that seals the
// group atomically. Every frame is CRC-protected; sealed segments
// carry a digest-keyed sidecar index so recovery registers their
// nodes without replaying their payloads.
//
// Recovery is *verified, not trusted*: the store only hands back a
// table after rebuilding it from node records and recomputing its
// Merkle root against the persisted commitment, and the layers above
// re-verify that commitment against the on-chain hash. A torn or
// corrupt tail is truncated to the last durable commit marker and the
// lost suffix heals through the ordinary data.sync path. The FaultFS
// crash-point VFS (faultfs.go) and the sweep test over it are the
// proof obligation for those claims.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"medshare/internal/chain"
	"medshare/internal/reldb"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory (file backend). Ignored when FS is set.
	Dir string
	// FS overrides the backend (NewMemFS() for the memory backend,
	// NewFaultFS() under crash injection). Nil selects DirFS(Dir).
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB).
	SegmentBytes int64
	// NoSync skips fsync after commit (benchmarks; never production).
	NoSync bool
}

// Stats describes what Open found and what recovery cost.
type Stats struct {
	Segments int
	// TotalBytes is the log size on disk at open.
	TotalBytes int64
	// ScannedBytes counts bytes read and CRC-verified during open (full
	// scans plus indexed metadata frames) — the "replay" cost.
	ScannedBytes int64
	// FetchedBytes counts node-record bytes read lazily by LoadTable
	// since open.
	FetchedBytes int64
	// TailBytes is the size of the discarded tail: bytes past the last
	// durable commit marker in the final segment.
	TailBytes int64
	// TornTail reports whether the final segment ended in an invalid or
	// uncommitted suffix (truncated away).
	TornTail bool
	// DegradedSegments counts sealed segments with detected corruption;
	// their valid prefix was used, the rest ignored.
	DegradedSegments int
	Records          int
	Blocks           int
	NodeRecords      int
	// Commits is the sequence number of the last durable commit group.
	Commits uint64
	// CleanShutdown reports whether the last durable commit carried the
	// clean-shutdown flag.
	CleanShutdown bool
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// recRef locates a node record: segment ordinal + frame offset.
type recRef struct {
	seg int
	off int64
}

// Store is an open node store. All methods are safe for concurrent
// use; commits are serialized internally.
type Store struct {
	mu       sync.Mutex
	fs       FS
	segBytes int64
	noSync   bool

	segNames      []string
	readers       []File // per-segment read handles (readers[active] == active)
	active        File
	activeAt      int // ordinal of the active segment
	activeSize    int64
	activeEntries []segEntry

	nodes  map[[digLen]byte]recRef
	blocks []*chain.Block
	tables map[string]TableRoot
	shares map[string]ShareMeta
	state  *StateCheckpoint

	commitSeq uint64
	stats     Stats
	failed    error
	closed    bool
}

const defaultSegmentBytes = 8 << 20

func segName(i int) string { return fmt.Sprintf("seg-%08d.wal", i) }

// Open opens (creating if empty) a store and recovers its contents:
// sealed segments load through their indexes (falling back to a full
// scan on any index damage), the active segment is fully scanned, and
// any suffix past the last durable commit marker is truncated away as
// a torn tail.
func Open(opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		if opts.Dir == "" {
			return nil, errors.New("store: Options needs Dir or FS")
		}
		var err error
		if fs, err = NewDirFS(opts.Dir); err != nil {
			return nil, err
		}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	s := &Store{
		fs:       fs,
		segBytes: segBytes,
		noSync:   opts.NoSync,
		nodes:    make(map[[digLen]byte]recRef),
		tables:   make(map[string]TableRoot),
		shares:   make(map[string]ShareMeta),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenMemory returns a store over a fresh in-memory filesystem — the
// memory backend: same code paths, no durability.
func OpenMemory() *Store {
	s, err := Open(Options{FS: NewMemFS()})
	if err != nil {
		// A fresh MemFS cannot fail to open.
		panic(err)
	}
	return s
}

// group accumulates the records of one not-yet-committed group during
// recovery; a commit marker flushes it, EOF or corruption discards it.
type group struct {
	nodes  map[[digLen]byte]recRef
	tables []TableRoot
	shares []ShareMeta
	blocks []*chain.Block
	state  *StateCheckpoint
	count  int
}

func (g *group) reset() { *g = group{} }

// applyRecord stages one decoded record into g, or — for kindCommit —
// flushes g into the store and returns the commit record.
func (s *Store) applyRecord(g *group, seg int, kind byte, payload []byte, off int64) (committed bool, clean bool, err error) {
	switch kind {
	case kindNode:
		d, ok := nodeRecDigest(payload)
		if !ok {
			return false, false, fmt.Errorf("store: malformed node record")
		}
		if g.nodes == nil {
			g.nodes = make(map[[digLen]byte]recRef)
		}
		g.nodes[d] = recRef{seg: seg, off: off}
	case kindTableRoot:
		var tr TableRoot
		if err := jsonUnmarshal(payload, &tr); err != nil {
			return false, false, err
		}
		g.tables = append(g.tables, tr)
	case kindShareMeta:
		var sm ShareMeta
		if err := jsonUnmarshal(payload, &sm); err != nil {
			return false, false, err
		}
		g.shares = append(g.shares, sm)
	case kindBlock:
		b, err := decodeBlockRec(payload)
		if err != nil {
			return false, false, err
		}
		g.blocks = append(g.blocks, b)
	case kindState:
		var cp StateCheckpoint
		if err := jsonUnmarshal(payload, &cp); err != nil {
			return false, false, err
		}
		g.state = &cp
	case kindCommit:
		var cr commitRec
		if err := jsonUnmarshal(payload, &cr); err != nil {
			return false, false, err
		}
		for d, ref := range g.nodes {
			if _, dup := s.nodes[d]; !dup {
				s.nodes[d] = ref
				s.stats.NodeRecords++
			}
		}
		for _, tr := range g.tables {
			s.tables[tr.Name] = tr
		}
		for _, sm := range g.shares {
			s.shares[sm.ID] = sm
		}
		s.blocks = append(s.blocks, g.blocks...)
		s.stats.Blocks += len(g.blocks)
		if g.state != nil {
			s.state = g.state
		}
		s.commitSeq = cr.Seq
		s.stats.CleanShutdown = cr.Clean
		g.reset()
		return true, cr.Clean, nil
	default:
		// Unknown kinds from a future version: skip within the group.
	}
	g.count++
	return false, false, nil
}

func jsonUnmarshal(p []byte, v any) error {
	if err := json.Unmarshal(p, v); err != nil {
		return fmt.Errorf("store: decoding record: %w", err)
	}
	return nil
}

// recover scans the log and rebuilds the in-memory indexes.
func (s *Store) recover() error {
	names, err := s.fs.List()
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	for _, n := range names {
		if len(n) == len(segName(0)) && n[:4] == "seg-" && n[len(n)-4:] == ".wal" {
			s.segNames = append(s.segNames, n)
		}
	}
	if len(s.segNames) == 0 {
		return s.startSegment(0)
	}
	s.readers = make([]File, len(s.segNames))
	for i, name := range s.segNames {
		f, err := s.fs.Open(name)
		if err != nil {
			return fmt.Errorf("store: opening segment %s: %w", name, err)
		}
		s.readers[i] = f
		sz, err := f.Size()
		if err != nil {
			return err
		}
		s.stats.TotalBytes += sz
	}
	s.stats.Segments = len(s.segNames)

	last := len(s.segNames) - 1
	for i := range s.segNames {
		if i < last && s.recoverSealed(i) {
			continue
		}
		if err := s.recoverScan(i, i == last); err != nil {
			return err
		}
	}

	// Reopen the last segment for appending (recoverScan truncated any
	// torn tail) and rotate immediately if it is already over-size.
	s.activeAt = last
	f, err := s.fs.OpenAppend(s.segNames[last])
	if err != nil {
		return fmt.Errorf("store: reopening active segment: %w", err)
	}
	s.active = f
	s.readers[last] = f
	if s.activeSize >= s.segBytes {
		return s.rotateLocked()
	}
	return nil
}

// recoverSealed loads sealed segment i through its sidecar index.
// Returns false (caller falls back to a full scan) on any damage.
func (s *Store) recoverSealed(i int) bool {
	idxFile, err := s.fs.Open(s.segNames[i] + ".idx")
	if err != nil {
		return false
	}
	defer idxFile.Close()
	sz, err := idxFile.Size()
	if err != nil || sz > int64(maxSegIndexEntries)*segEntryLen {
		return false
	}
	buf := make([]byte, sz)
	if _, err := idxFile.ReadAt(buf, 0); err != nil {
		return false
	}
	entries, err := decodeSegIndex(buf)
	if err != nil {
		return false
	}
	s.stats.ScannedBytes += sz
	var g group
	sawCommit := false
	for _, e := range entries {
		if e.kind == kindNode {
			// Register by digest without reading the payload; the digest
			// is re-verified against the payload on fetch.
			if g.nodes == nil {
				g.nodes = make(map[[digLen]byte]recRef)
			}
			g.nodes[e.dig] = recRef{seg: i, off: e.off}
			g.count++
			continue
		}
		kind, payload, err := readFrameAt(s.readers[i], e.off)
		if err != nil || kind != e.kind {
			return false
		}
		s.stats.ScannedBytes += frameSize(len(payload))
		s.stats.Records++
		committed, _, err := s.applyRecord(&g, i, kind, payload, e.off)
		if err != nil {
			return false
		}
		if committed {
			sawCommit = true
		}
	}
	// A sealed segment must end on a commit boundary; leftover staged
	// records mean the index lies — rescan.
	if g.count > 0 || !sawCommit && len(entries) > 0 {
		return false
	}
	s.stats.Records += len(entries)
	return true
}

// recoverScan fully scans segment i. For the final (active) segment it
// truncates everything past the last durable commit marker; for sealed
// segments damage only marks the store degraded.
func (s *Store) recoverScan(i int, isActive bool) error {
	f := s.readers[i]
	sz, err := f.Size()
	if err != nil {
		return err
	}
	data := make([]byte, sz)
	if sz > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return fmt.Errorf("store: reading segment %s: %w", s.segNames[i], err)
		}
	}
	s.stats.ScannedBytes += sz

	var g group
	var entries []segEntry
	lastDurable := int64(0)
	var recErr error
	valid, tailErr := scanFrames(data, func(kind byte, payload []byte, off int64) bool {
		committed, _, err := s.applyRecord(&g, i, kind, payload, off)
		if err != nil {
			recErr = err
			return false
		}
		s.stats.Records++
		e := segEntry{kind: kind, off: off, size: frameSize(len(payload))}
		if kind == kindNode {
			e.dig, _ = nodeRecDigest(payload)
		}
		entries = append(entries, e)
		if committed {
			lastDurable = off + frameSize(len(payload))
		}
		return true
	})
	_ = valid
	dirty := tailErr != nil || recErr != nil || lastDurable < sz
	if !isActive {
		if dirty {
			s.stats.DegradedSegments++
		}
		return nil
	}
	s.activeSize = lastDurable
	// Keep only the entries of durable groups for the eventual seal.
	s.activeEntries = entries[:0]
	for _, e := range entries {
		if e.off+e.size <= lastDurable {
			s.activeEntries = append(s.activeEntries, e)
		}
	}
	if dirty {
		s.stats.TornTail = true
		s.stats.TailBytes = sz - lastDurable
		if err := s.fs.Truncate(s.segNames[i], lastDurable); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

// startSegment creates segment i as the active one.
func (s *Store) startSegment(i int) error {
	name := segName(i)
	f, err := s.fs.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("store: creating segment %s: %w", name, err)
	}
	s.segNames = append(s.segNames, name)
	s.readers = append(s.readers, f)
	s.active = f
	s.activeAt = i
	s.activeSize = 0
	s.activeEntries = nil
	s.stats.Segments = len(s.segNames)
	return nil
}

// rotateLocked seals the active segment (writing its sidecar index)
// and starts the next one. Callers hold s.mu (or are inside Open).
func (s *Store) rotateLocked() error {
	// Seal: the index is advisory, so best-effort — a failed index
	// write leaves a segment that recovers via full scan.
	idx := encodeSegIndex(s.activeEntries)
	if f, err := s.fs.OpenAppend(s.segNames[s.activeAt] + ".idx"); err == nil {
		if _, werr := f.Write(idx); werr == nil && !s.noSync {
			_ = f.Sync()
		}
		_ = f.Close()
	}
	// Keep the sealed segment's read handle; just stop appending.
	return s.startSegment(len(s.segNames))
}

// fail latches a write-path error: once the append position is in
// doubt every later commit refuses, and the owner reopens the store.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return fmt.Errorf("store: log write failed (store now read-only): %w", err)
}

// Commit runs fn against a fresh batch and appends the staged records
// plus a commit marker as one atomic, fsynced group. An empty batch
// writes nothing. Commits are serialized; a commit whose write or sync
// fails poisons the store for writing (reads stay available).
func (s *Store) Commit(fn func(b *Batch) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("store: previous write failure: %w", s.failed)
	}
	b := &Batch{s: s}
	if err := fn(b); err != nil {
		return err
	}
	if len(b.entries) == 0 {
		return nil
	}
	seq := s.commitSeq + 1
	marker, err := encodeJSONRec(commitRec{Seq: seq, Clean: b.clean})
	if err != nil {
		return err
	}
	markerOff := int64(len(b.buf))
	b.buf = appendFrame(b.buf, kindCommit, marker)
	b.entries = append(b.entries, segEntry{kind: kindCommit, off: markerOff, size: frameSize(len(marker))})

	if _, err := s.active.Write(b.buf); err != nil {
		return s.fail(err)
	}
	if !s.noSync {
		if err := s.active.Sync(); err != nil {
			return s.fail(err)
		}
	}

	base := s.activeSize
	for i := range b.entries {
		e := &b.entries[i]
		e.off += base
		if e.kind == kindNode {
			s.nodes[e.dig] = recRef{seg: s.activeAt, off: e.off}
			s.stats.NodeRecords++
		}
		s.activeEntries = append(s.activeEntries, *e)
	}
	for _, tr := range b.tables {
		s.tables[tr.Name] = tr
	}
	for _, sm := range b.shares {
		s.shares[sm.ID] = sm
	}
	if b.state != nil {
		s.state = b.state
	}
	s.activeSize += int64(len(b.buf))
	s.stats.TotalBytes += int64(len(b.buf))
	s.commitSeq = seq
	s.stats.Commits = seq
	s.stats.CleanShutdown = b.clean

	if s.activeSize >= s.segBytes {
		if err := s.rotateLocked(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// Batch stages the records of one atomic commit group.
type Batch struct {
	s       *Store
	buf     []byte
	scratch []byte // node-record encoding buffer, reused per node
	entries []segEntry
	// pending dedups node digests staged in this batch.
	pending map[[digLen]byte]bool
	tables  []TableRoot
	shares  []ShareMeta
	state   *StateCheckpoint
	clean   bool
}

func (b *Batch) appendRec(kind byte, payload []byte, dig [digLen]byte) {
	off := int64(len(b.buf))
	b.buf = appendFrame(b.buf, kind, payload)
	b.entries = append(b.entries, segEntry{kind: kind, dig: dig, off: off, size: frameSize(len(payload))})
}

// PutTable stages a table: every row-tree node whose digest the log
// has never seen (O(changed nodes) after a delta), then the root
// commitment that interprets them. The table is loadable back under
// its schema name.
func (b *Batch) PutTable(t *reldb.Table) error {
	t.ExportNodes(
		func(d [32]byte) bool {
			if b.pending[d] {
				return true
			}
			_, ok := b.s.nodes[d]
			return ok
		},
		func(n reldb.NodeData) bool {
			b.scratch = appendNodeRec(b.scratch[:0], n)
			b.appendRec(kindNode, b.scratch, n.Digest)
			if b.pending == nil {
				b.pending = make(map[[digLen]byte]bool)
			}
			b.pending[n.Digest] = true
			return true
		},
	)
	tr := TableRoot{
		Name:   t.Name(),
		Schema: t.Schema(),
		Secret: append([]byte(nil), t.PrioritySecret()...),
		Root:   t.RowsRoot(),
		Rows:   t.Len(),
	}
	p, err := encodeJSONRec(tr)
	if err != nil {
		return err
	}
	b.appendRec(kindTableRoot, p, [digLen]byte{})
	b.tables = append(b.tables, tr)
	return nil
}

// PutBlock stages one accepted chain block.
func (b *Batch) PutBlock(bl *chain.Block) error {
	p, err := encodeJSONRec(bl)
	if err != nil {
		return err
	}
	b.appendRec(kindBlock, p, [digLen]byte{})
	return nil
}

// PutShareMeta stages the replica-location record for one share.
func (b *Batch) PutShareMeta(m ShareMeta) error {
	p, err := encodeJSONRec(m)
	if err != nil {
		return err
	}
	b.appendRec(kindShareMeta, p, [digLen]byte{})
	b.shares = append(b.shares, m)
	return nil
}

// PutState stages a world-state checkpoint.
func (b *Batch) PutState(cp StateCheckpoint) error {
	p, err := encodeJSONRec(&cp)
	if err != nil {
		return err
	}
	b.appendRec(kindState, p, [digLen]byte{})
	b.state = &cp
	return nil
}

// MarkClean flags this commit as a clean-shutdown checkpoint.
func (b *Batch) MarkClean() { b.clean = true }

// --- recovery accessors ---

// Blocks returns the blocks recovered at Open, in log (acceptance)
// order. Blocks appended after Open are not included — the chain
// layer already holds them.
func (s *Store) Blocks() []*chain.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*chain.Block(nil), s.blocks...)
}

// Tables returns the latest persisted root commitment per table name.
func (s *Store) Tables() map[string]TableRoot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TableRoot, len(s.tables))
	for k, v := range s.tables {
		out[k] = v
	}
	return out
}

// Shares returns the latest persisted replica metadata per share ID.
func (s *Store) Shares() map[string]ShareMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ShareMeta, len(s.shares))
	for k, v := range s.shares {
		out[k] = v
	}
	return out
}

// State returns the latest durable world-state checkpoint, if any.
func (s *Store) State() (StateCheckpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		return StateCheckpoint{}, false
	}
	return *s.state, true
}

// Stats returns recovery and replay statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LoadTable rebuilds the named table from its persisted node records
// and verifies the rebuild: recomputed Merkle root against the
// persisted commitment, row count against the persisted count. The
// result is the exact committed table or an error — never silently
// wrong data.
func (s *Store) LoadTable(name string) (*reldb.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: no persisted table %q", name)
	}
	return s.loadTableLocked(tr)
}

// LoadTableRoot is LoadTable for an explicit commitment (callers that
// validated the TableRoot against external metadata first).
func (s *Store) LoadTableRoot(tr TableRoot) (*reldb.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadTableLocked(tr)
}

func (s *Store) loadTableLocked(tr TableRoot) (*reldb.Table, error) {
	return reldb.TableFromNodes(tr.Schema, tr.Secret, tr.Root, tr.Rows, func(d [32]byte) (reldb.NodeData, bool) {
		ref, ok := s.nodes[d]
		if !ok {
			return reldb.NodeData{}, false
		}
		kind, payload, err := readFrameAt(s.readers[ref.seg], ref.off)
		if err != nil || kind != kindNode {
			return reldb.NodeData{}, false
		}
		s.stats.FetchedBytes += frameSize(len(payload))
		nd, err := decodeNodeRec(payload)
		if err != nil || nd.Digest != d {
			return reldb.NodeData{}, false
		}
		return nd, true
	})
}

// Close syncs and closes the log. It does not write a clean-shutdown
// marker — that is the owning node's job (a final Commit with
// MarkClean), so Close after kill-style teardown stays cheap.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.active != nil && s.failed == nil && !s.noSync {
		if err := s.active.Sync(); err != nil && first == nil {
			first = err
		}
	}
	for i, r := range s.readers {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
		s.readers[i] = nil
	}
	s.active = nil
	return first
}
