package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
	"medshare/internal/wire"
)

// Typed record payloads riding the WAL frames. Every record a commit
// writes per update is binary: node records carry the row in its
// compact form, blocks use the chain's block codec (the bytes gossip
// carries), and table roots, share metas and commit markers are fixed
// fields and varints. Only the state checkpoint, written once per clean
// shutdown, is JSON. The layout is not self-describing: every segment
// opens with a format frame carrying FormatVersion, Open refuses a
// segment of any other version, and a change to any record below is a
// version bump (with a migration for the data dirs it retires), never a
// record the reader skips.

const (
	kindTableRoot byte = 2 // a table's root digest + schema + seed
	kindShareMeta byte = 3 // per-share replica metadata
	kindBlock     byte = 4 // one accepted chain block
	kindState     byte = 5 // world-state checkpoint
	kindCommit    byte = 6 // commit marker sealing the preceding group
	kindNode      byte = 7 // one content-addressed row-tree node
	kindFormat    byte = 8 // the format frame opening every segment
)

// kindNames names the record kinds in Stats.Written and /metrics.
var kindNames = map[byte]string{
	kindTableRoot: "table_root",
	kindShareMeta: "share_meta",
	kindBlock:     "block",
	kindState:     "state",
	kindCommit:    "commit",
	kindNode:      "node",
	kindFormat:    "format",
}

// FormatVersion is the store format this build writes and the only one
// it reads. Version 1 is the log before format frames, with full-width
// node records and JSON metadata.
const FormatVersion = 2

// ErrFormatVersion marks a segment written in a format this build does
// not read; the wrapped message names both versions.
var ErrFormatVersion = errors.New("store: unsupported store format version")

const digLen = 32

// errRecord marks a checksummed record whose payload does not decode.
var errRecord = errors.New("store: malformed record")

// appendFormatRec appends the format frame payload: the version.
func appendFormatRec(dst []byte) []byte { return binary.AppendUvarint(dst, FormatVersion) }

// formatFrameLen is the size of the frame that opens every segment.
var formatFrameLen = frameSize(len(appendFormatRec(nil)))

// Node record flags: which children the record carries. An absent child
// is the empty subtree (all-zero digest) and takes no bytes.
const (
	nodeHasLeft  byte = 1 << 0
	nodeHasRight byte = 1 << 1
)

// appendNodeRec appends a reldb node record to dst: the flags byte, the
// node's own digest, the children present, then the row's compact form.
// The digest stays in the record so the open-time scan registers a node
// by copying it, without decoding the row or hashing.
func appendNodeRec(dst []byte, n reldb.NodeData) []byte {
	var flags byte
	if n.Left != ([digLen]byte{}) {
		flags |= nodeHasLeft
	}
	if n.Right != ([digLen]byte{}) {
		flags |= nodeHasRight
	}
	dst = append(dst, flags)
	dst = append(dst, n.Digest[:]...)
	if flags&nodeHasLeft != 0 {
		dst = append(dst, n.Left[:]...)
	}
	if flags&nodeHasRight != 0 {
		dst = append(dst, n.Right[:]...)
	}
	return n.Row.AppendCompact(dst)
}

// decodeNodeRec decodes a node record payload.
func decodeNodeRec(p []byte) (reldb.NodeData, error) {
	var n reldb.NodeData
	d, ok := nodeRecDigest(p)
	if !ok {
		return n, fmt.Errorf("%w: node record header", errRecord)
	}
	n.Digest = d
	flags, p := p[0], p[1+digLen:]
	if flags&nodeHasLeft != 0 && !cutChild(&p, &n.Left) || flags&nodeHasRight != 0 && !cutChild(&p, &n.Right) {
		return reldb.NodeData{}, fmt.Errorf("%w: node record child", errRecord)
	}
	row, err := reldb.DecodeCompactRow(p)
	if err != nil {
		return reldb.NodeData{}, fmt.Errorf("store: decoding row: %w", err)
	}
	n.Row = row
	return n, nil
}

// cutChild moves a child digest from the front of *p into dst. A record
// that names the empty subtree as a present child is malformed: it
// would not re-encode to its bytes.
func cutChild(p *[]byte, dst *[digLen]byte) bool {
	if len(*p) < digLen {
		return false
	}
	copy(dst[:], *p)
	*p = (*p)[digLen:]
	return *dst != [digLen]byte{}
}

// nodeRecDigest extracts just the digest key from a node record
// payload (the open-time scan registers locations without decoding
// rows).
func nodeRecDigest(p []byte) ([digLen]byte, bool) {
	var d [digLen]byte
	if len(p) < 1+digLen || p[0]&^(nodeHasLeft|nodeHasRight) != 0 {
		return d, false
	}
	copy(d[:], p[1:1+digLen])
	return d, true
}

// TableRoot is the persisted commitment to one table: everything
// needed to rebuild it from node records and verify the rebuild.
type TableRoot struct {
	// Name is the table's name, which is its schema's name.
	Name   string
	Schema reldb.Schema
	// Secret keys the treap priorities (share replicas); empty for
	// unkeyed tables.
	Secret []byte
	Root   [32]byte
	Rows   int
}

// ShareMeta is the persisted per-share replica state: which tables
// hold the replica and the sequence number it was applied at. The
// authoritative metadata (on-chain hash, participants) lives on the
// chain; this record only locates the local replica.
type ShareMeta struct {
	ID       string
	Seq      uint64
	Source   string
	View     string
	PrioSeed []byte
}

// StateCheckpoint is a full world-state export at a block height,
// written on clean shutdown so a graceful restart re-executes nothing.
type StateCheckpoint struct {
	Height  uint64          `json:"height"`
	Head    [32]byte        `json:"head"`
	Root    [32]byte        `json:"root"`
	Entries []statedb.Entry `json:"entries"`
}

// commitRec seals the records appended since the previous marker into
// one atomic group.
type commitRec struct {
	Seq uint64
	// Clean marks a shutdown checkpoint: the process stopped gracefully
	// after this group.
	Clean bool
}

// appendTableRootRec writes the schema as reldb.AppendSchema does, then
// the secret, the root digest and the row count.
func appendTableRootRec(dst []byte, tr TableRoot) []byte {
	dst = reldb.AppendSchema(dst, tr.Schema)
	dst = wire.AppendBytes(dst, tr.Secret)
	dst = append(dst, tr.Root[:]...)
	return binary.AppendUvarint(dst, uint64(tr.Rows))
}

func appendShareMetaRec(dst []byte, m ShareMeta) []byte {
	dst = wire.AppendBytes(dst, m.ID)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = wire.AppendBytes(dst, m.Source)
	dst = wire.AppendBytes(dst, m.View)
	return wire.AppendBytes(dst, m.PrioSeed)
}

func appendCommitRec(dst []byte, c commitRec) []byte {
	dst = binary.AppendUvarint(dst, c.Seq)
	if c.Clean {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStateRec(cp *StateCheckpoint) ([]byte, error) { return json.Marshal(cp) }

// recReader walks a binary record payload with bounds checks. Varints
// must be minimal, so an accepted record re-encodes to its exact bytes.
type recReader struct {
	buf []byte
	err error
}

func (r *recReader) fail() { r.err = errRecord }

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := wire.Uvarint(r.buf)
	if n == 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// raw returns the next n bytes, aliasing the payload.
func (r *recReader) raw(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// bytes reads a length-prefixed field into a fresh slice (nil if empty).
func (r *recReader) bytes() []byte {
	if b := r.raw(r.uvarint()); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

func (r *recReader) str() string { return string(r.bytes()) }

func (r *recReader) done(what string) error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail()
	}
	if r.err != nil {
		return fmt.Errorf("%w: %s", r.err, what)
	}
	return nil
}

func decodeTableRootRec(p []byte) (TableRoot, error) {
	var tr TableRoot
	s, rest, err := reldb.CutSchema(p)
	if err != nil {
		return tr, fmt.Errorf("%w: table root schema: %v", errRecord, err)
	}
	r := recReader{buf: rest}
	tr.Name, tr.Schema, tr.Secret = s.Name, s, r.bytes()
	copy(tr.Root[:], r.raw(digLen))
	rows := r.uvarint()
	if rows > uint64(maxRows) {
		r.fail()
	}
	tr.Rows = int(rows)
	return tr, r.done("table root")
}

// maxRows bounds a table root's row count to what an int holds.
const maxRows = int(^uint(0) >> 1)

func decodeShareMetaRec(p []byte) (ShareMeta, error) {
	r := recReader{buf: p}
	m := ShareMeta{ID: r.str(), Seq: r.uvarint(), Source: r.str(), View: r.str(), PrioSeed: r.bytes()}
	return m, r.done("share meta")
}

func decodeCommitRec(p []byte) (commitRec, error) {
	r := recReader{buf: p}
	c := commitRec{Seq: r.uvarint()}
	switch clean := r.raw(1); {
	case r.err != nil:
	case clean[0] > 1:
		r.fail()
	default:
		c.Clean = clean[0] == 1
	}
	return c, r.done("commit marker")
}

// decodeFormatRec reads the version a format frame carries.
func decodeFormatRec(p []byte) (uint64, error) {
	r := recReader{buf: p}
	v := r.uvarint()
	return v, r.done("format frame")
}

func decodeBlockRec(p []byte) (*chain.Block, error) {
	b, err := chain.DecodeBlock(p)
	if err != nil {
		return nil, fmt.Errorf("%w: block: %v", errRecord, err)
	}
	return b, nil
}

func decodeStateRec(p []byte) (*StateCheckpoint, error) {
	var cp StateCheckpoint
	if err := json.Unmarshal(p, &cp); err != nil {
		return nil, fmt.Errorf("%w: state checkpoint: %v", errRecord, err)
	}
	return &cp, nil
}
