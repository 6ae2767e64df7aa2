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
// Every segment opens with a format frame, and Open refuses a data dir
// written in any other format version (ErrFormatVersion) rather than
// skipping what it cannot read.
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
	"errors"
	"fmt"
	"maps"
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
	// Written counts what this store appended since Open, per record
	// kind ("node", "table_root", "share_meta", "block", "state",
	// "commit", "format"): records and bytes on disk, frame headers
	// included. The bytes of all kinds add up to the log's growth.
	Written map[string]KindWrites
}

// KindWrites counts the records of one kind a store appended and their
// size on disk.
type KindWrites struct {
	Records int64
	Bytes   int64
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
		tr, err := decodeTableRootRec(payload)
		if err != nil {
			return false, false, err
		}
		g.tables = append(g.tables, tr)
	case kindShareMeta:
		sm, err := decodeShareMetaRec(payload)
		if err != nil {
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
		cp, err := decodeStateRec(payload)
		if err != nil {
			return false, false, err
		}
		g.state = cp
	case kindCommit:
		cr, err := decodeCommitRec(payload)
		if err != nil {
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
		s.stats.Commits = cr.Seq
		s.stats.CleanShutdown = cr.Clean
		g.reset()
		return true, cr.Clean, nil
	default:
		// The format version fixes the kinds; anything else (a format
		// frame included, which only opens a segment) is not this format.
		return false, false, fmt.Errorf("%w: kind %d at offset %d", errRecord, kind, off)
	}
	g.count++
	return false, false, nil
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

	// Check every segment's format before anything is read or truncated:
	// a data dir of another version, an unreadable segment or a damaged
	// active one is refused untouched.
	last := len(s.segNames) - 1
	starts := make([]segStart, len(s.segNames))
	for i := range s.segNames {
		if starts[i], err = s.checkFormat(i, i == last); err != nil {
			s.closeReaders()
			return err
		}
	}
	for i := range s.segNames {
		switch {
		case starts[i] == startTorn && i == last:
			// The active segment lost its format frame to a crash right
			// after it was created: nothing follows it, so nothing in it
			// was committed.
			if sz, _ := s.readers[i].Size(); sz > 0 {
				s.stats.TornTail = true
				s.stats.TailBytes = sz
			}
			if err := s.fs.Truncate(s.segNames[i], 0); err != nil {
				s.closeReaders()
				return fmt.Errorf("store: truncating torn segment start: %w", err)
			}
		case i < last && s.recoverSealed(i):
		case starts[i] != startFormat:
			// A sealed segment whose start is damaged and whose index
			// does not vouch for it: its version is unknown, so none of
			// it is read.
			s.stats.DegradedSegments++
		default:
			if err := s.recoverScan(i, i == last); err != nil {
				s.closeReaders()
				return err
			}
		}
	}

	// Reopen the last segment for appending (recovery truncated any torn
	// tail) and rotate immediately if it is already over-size.
	s.activeAt = last
	f, err := s.fs.OpenAppend(s.segNames[last])
	if err != nil {
		return fmt.Errorf("store: reopening active segment: %w", err)
	}
	_ = s.readers[last].Close()
	s.active = f
	s.readers[last] = f
	if starts[last] == startTorn {
		return s.writeFormatFrame()
	}
	if s.activeSize >= s.segBytes {
		return s.rotateLocked()
	}
	return nil
}

// segStart says what opens a segment.
type segStart int

const (
	// startFormat: an intact format frame of this build's version.
	startFormat segStart = iota
	// startTorn: no intact frame and no bytes past where the format
	// frame ends, so no record of the segment can have been committed.
	startTorn
	// startDamaged: no intact frame, but bytes follow. The format frame
	// is synced before any record is written, so a crash cannot leave
	// this; it is damage, and may hide committed groups.
	startDamaged
)

// checkFormat reads the frame that opens segment i. A segment that opens
// with an intact frame of another kind or version is in another format:
// ErrFormatVersion, naming both versions. A read error is returned as
// is, and so is a damaged start of the active segment: truncating it
// could discard committed groups, so Open refuses rather than guess.
func (s *Store) checkFormat(i int, isActive bool) (segStart, error) {
	name := s.segNames[i]
	sz, err := s.readers[i].Size()
	if err != nil {
		return 0, fmt.Errorf("store: segment %s: %w", name, err)
	}
	kind, payload, err := readFrameAt(s.readers[i], 0)
	switch {
	case err != nil && !errors.Is(err, ErrTornTail):
		return 0, fmt.Errorf("store: segment %s: %w", name, err)
	case err != nil && sz <= formatFrameLen:
		return startTorn, nil
	case err != nil && isActive:
		return 0, fmt.Errorf("store: active segment %s (%d bytes) opens with a damaged format frame: %w", name, sz, err)
	case err != nil:
		return startDamaged, nil
	}
	version := uint64(1) // a log before format frames opens with a record
	if kind == kindFormat {
		if version, err = decodeFormatRec(payload); err != nil {
			return 0, fmt.Errorf("store: segment %s: %w", name, err)
		}
	}
	if version != FormatVersion {
		return 0, fmt.Errorf("%w: segment %s is format version %d, this build reads version %d",
			ErrFormatVersion, name, version, FormatVersion)
	}
	return startFormat, nil
}

// writeFormatFrame opens the (empty) active segment with the format
// frame.
func (s *Store) writeFormatFrame() error {
	frame := appendFrame(nil, kindFormat, appendFormatRec(nil))
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("store: writing format frame: %w", err)
	}
	if !s.noSync {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: writing format frame: %w", err)
		}
	}
	e := segEntry{kind: kindFormat, size: int64(len(frame))}
	s.activeEntries = append(s.activeEntries[:0], e)
	s.activeSize = e.size
	s.stats.TotalBytes += e.size
	s.countWrite(e)
	return nil
}

// countWrite adds one appended frame to Stats.Written.
func (s *Store) countWrite(e segEntry) {
	if s.stats.Written == nil {
		s.stats.Written = make(map[string]KindWrites)
	}
	w := s.stats.Written[kindNames[e.kind]]
	w.Records++
	w.Bytes += e.size
	s.stats.Written[kindNames[e.kind]] = w
}

func (s *Store) closeReaders() {
	for i, r := range s.readers {
		if r != nil {
			_ = r.Close()
			s.readers[i] = nil
		}
	}
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
	if err != nil || sz > maxSegIndexBytes {
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
	// The index covers every frame, the format frame (checked at open)
	// first.
	if len(entries) == 0 || entries[0].kind != kindFormat || entries[0].size != formatFrameLen {
		return false
	}
	s.stats.ScannedBytes += sz + formatFrameLen
	var g group
	sawCommit := false
	for _, e := range entries[1:] {
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
	if g.count > 0 || !sawCommit && len(entries) > 1 {
		return false
	}
	s.stats.Records += len(entries) - 1
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

	// checkFormat verified the format frame; records follow it.
	var g group
	entries := []segEntry{{kind: kindFormat, size: formatFrameLen}}
	lastDurable := formatFrameLen
	var recErr error
	_, tailErr := scanFrames(data[formatFrameLen:], func(kind byte, payload []byte, rel int64) bool {
		off := formatFrameLen + rel
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
	if recErr != nil {
		// An intact frame that does not decode is not damage the log
		// can heal by truncation: refuse to guess.
		return fmt.Errorf("store: segment %s: %w", s.segNames[i], recErr)
	}
	dirty := tailErr != nil || lastDurable < sz
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
	s.activeEntries = nil
	s.stats.Segments = len(s.segNames)
	return s.writeFormatFrame()
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
	marker := appendCommitRec(b.scratch[:0], commitRec{Seq: seq, Clean: b.clean})
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
		s.countWrite(*e)
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
	b.scratch = appendTableRootRec(b.scratch[:0], tr)
	b.appendRec(kindTableRoot, b.scratch, [digLen]byte{})
	b.tables = append(b.tables, tr)
	return nil
}

// PutBlock stages one accepted chain block.
func (b *Batch) PutBlock(bl *chain.Block) error {
	b.scratch = chain.AppendBlockBinary(b.scratch[:0], bl)
	b.appendRec(kindBlock, b.scratch, [digLen]byte{})
	return nil
}

// PutShareMeta stages the replica-location record for one share.
func (b *Batch) PutShareMeta(m ShareMeta) error {
	b.scratch = appendShareMetaRec(b.scratch[:0], m)
	b.appendRec(kindShareMeta, b.scratch, [digLen]byte{})
	b.shares = append(b.shares, m)
	return nil
}

// PutState stages a world-state checkpoint.
func (b *Batch) PutState(cp StateCheckpoint) error {
	p, err := appendStateRec(&cp)
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
	st := s.stats
	st.Written = maps.Clone(s.stats.Written)
	return st
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
