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
	r := wire.NewReader(p, errRecord)
	flags := r.Byte()
	if flags&^(nodeHasLeft|nodeHasRight) != 0 {
		r.Fail("node record flags")
	}
	r.Fixed(n.Digest[:])
	if flags&nodeHasLeft != 0 {
		readChild(&r, &n.Left)
	}
	if flags&nodeHasRight != 0 {
		readChild(&r, &n.Right)
	}
	n.Row = reldb.ReadCompactRow(&r)
	if err := r.Done(); err != nil {
		return reldb.NodeData{}, err
	}
	return n, nil
}

// readChild reads a present child's digest. A record that names the
// empty subtree as a present child is malformed: it would not re-encode
// to its bytes.
func readChild(r *wire.Reader, dst *[digLen]byte) {
	if r.Fixed(dst[:]); *dst == ([digLen]byte{}) {
		r.Fail("node record names an empty child")
	}
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

func decodeTableRootRec(p []byte) (TableRoot, error) {
	r := wire.NewReader(p, errRecord)
	tr := TableRoot{Schema: reldb.ReadSchema(&r), Secret: ownBytes(r.Bytes())}
	tr.Name = tr.Schema.Name
	r.Fixed(tr.Root[:])
	rows := r.Uvarint()
	if rows > uint64(maxRows) {
		r.Fail("table root row count")
	}
	tr.Rows = int(rows)
	return tr, r.Done()
}

// maxRows bounds a table root's row count to what an int holds.
const maxRows = int(^uint(0) >> 1)

// ownBytes copies a field out of the record payload (nil if empty).
func ownBytes(b []byte) []byte {
	if len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

func decodeShareMetaRec(p []byte) (ShareMeta, error) {
	r := wire.NewReader(p, errRecord)
	m := ShareMeta{ID: string(r.Bytes()), Seq: r.Uvarint(), Source: string(r.Bytes()), View: string(r.Bytes()), PrioSeed: ownBytes(r.Bytes())}
	return m, r.Done()
}

func decodeCommitRec(p []byte) (commitRec, error) {
	r := wire.NewReader(p, errRecord)
	c := commitRec{Seq: r.Uvarint(), Clean: r.Bool()}
	return c, r.Done()
}

// decodeFormatRec reads the version a format frame carries.
func decodeFormatRec(p []byte) (uint64, error) {
	r := wire.NewReader(p, errRecord)
	v := r.Uvarint()
	return v, r.Done()
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
