package core

import (
	"encoding/binary"
	"fmt"

	"medshare/internal/reldb"
	"medshare/internal/wire"
)

// The anti-entropy response frame: a compact binary encoding replacing
// the JSON node summaries that used to dominate sync traffic. A child
// summary is its storage key, its raw 32-byte digest, and a varint size
// — against base64-in-JSON that roughly halves the per-node overhead (a
// digest alone shrank from 44 quoted base64 characters plus a field name
// to 33 bytes). Rows travel as their canonical encoding
// (reldb.Row.AppendCanonical, the bytes their leaf digest hashes); it is
// self-delimiting, so rows need no length prefix, and a decoded row
// hashes exactly like the row that was sent. Requests use the same
// varint framing (see appendSyncRequest below): a pipelined walk sends
// one request per wave chunk, so per-request key lists are no longer
// negligible, and base64-in-JSON storage keys cost ~1.4x the raw bytes.
// The request's canonical signing bytes are still computed separately
// (SyncRequest.signingBytes) — the frame is transport encoding, not the
// signature preimage. The fetch-response frame (fetch.go) reuses the
// reader below.
//
// Response frame layout (all integers varint unless noted):
//
//	version byte (syncWireVersion)
//	shareID: len ‖ bytes
//	seq
//	root: len ‖ raw bytes (32)
//	flags byte (bit0 = empty view)
//	node count, then per node:
//	  key: len ‖ bytes
//	  row: canonical encoding
//	  child mask byte (bit0 left, bit1 right), then per present child:
//	    key: len ‖ bytes, digest: len ‖ raw bytes, size
//	subtree count, then per subtree:
//	  key: len ‖ bytes
//	  row count, then per row: canonical encoding

// syncWireVersion tags the frame layout. Version 2 replaced
// length-prefixed JSON rows with canonical rows.
const syncWireVersion = 2

// syncWireMaxLen caps any single length field while decoding, so a
// corrupt frame cannot drive a huge allocation before the bounds check.
const syncWireMaxLen = 1 << 28

// errFrame marks a malformed binary data-channel frame.
var errFrame = fmt.Errorf("core: malformed data-channel frame")

func appendSyncChild(dst []byte, c *SyncChild) []byte {
	dst = wire.AppendBytes(dst, c.Key)
	dst = wire.AppendBytes(dst, c.Digest)
	return binary.AppendUvarint(dst, uint64(c.Size))
}

// appendSyncResponse encodes r into the binary frame.
func appendSyncResponse(dst []byte, r *SyncResponse) []byte {
	dst = append(dst, syncWireVersion)
	dst = wire.AppendBytes(dst, r.ShareID)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = wire.AppendBytes(dst, r.Root)
	var flags byte
	if r.Empty {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(r.Nodes)))
	for _, n := range r.Nodes {
		dst = wire.AppendBytes(dst, n.Key)
		dst = n.Row.AppendCanonical(dst)
		var mask byte
		if n.Left != nil {
			mask |= 1
		}
		if n.Right != nil {
			mask |= 2
		}
		dst = append(dst, mask)
		if n.Left != nil {
			dst = appendSyncChild(dst, n.Left)
		}
		if n.Right != nil {
			dst = appendSyncChild(dst, n.Right)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Subtrees)))
	for _, st := range r.Subtrees {
		dst = wire.AppendBytes(dst, st.Key)
		dst = binary.AppendUvarint(dst, uint64(len(st.Rows)))
		for _, row := range st.Rows {
			dst = row.AppendCanonical(dst)
		}
	}
	return dst
}

// frameReader walks a frame with bounds checking.
type frameReader struct {
	buf []byte
}

func (r *frameReader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, errFrame
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := wire.Uvarint(r.buf)
	if n == 0 {
		return 0, errFrame
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *frameReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > syncWireMaxLen || n > uint64(len(r.buf)) {
		return nil, errFrame
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *frameReader) row() (reldb.Row, error) {
	row, rest, err := reldb.CutRow(r.buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errFrame, err)
	}
	r.buf = rest
	return row, nil
}

func (r *frameReader) child() (*SyncChild, error) {
	key, err := r.bytes()
	if err != nil {
		return nil, err
	}
	dig, err := r.bytes()
	if err != nil {
		return nil, err
	}
	size, err := r.uvarint()
	if err != nil || size > syncWireMaxLen {
		return nil, errFrame
	}
	return &SyncChild{Key: key, Digest: dig, Size: int(size)}, nil
}

// decodeSyncResponse parses a frame produced by appendSyncResponse.
func decodeSyncResponse(raw []byte) (SyncResponse, error) {
	r := frameReader{buf: raw}
	var out SyncResponse
	ver, err := r.byte()
	if err != nil || ver != syncWireVersion {
		return out, errFrame
	}
	id, err := r.bytes()
	if err != nil {
		return out, err
	}
	out.ShareID = string(id)
	if out.Seq, err = r.uvarint(); err != nil {
		return out, err
	}
	if out.Root, err = r.bytes(); err != nil {
		return out, err
	}
	flags, err := r.byte()
	if err != nil {
		return out, err
	}
	out.Empty = flags&1 != 0
	nNodes, err := r.uvarint()
	if err != nil || nNodes > syncWireMaxLen {
		return out, errFrame
	}
	for i := uint64(0); i < nNodes; i++ {
		var n SyncNode
		if n.Key, err = r.bytes(); err != nil {
			return out, err
		}
		if n.Row, err = r.row(); err != nil {
			return out, err
		}
		mask, err := r.byte()
		if err != nil {
			return out, err
		}
		if mask&1 != 0 {
			if n.Left, err = r.child(); err != nil {
				return out, err
			}
		}
		if mask&2 != 0 {
			if n.Right, err = r.child(); err != nil {
				return out, err
			}
		}
		out.Nodes = append(out.Nodes, n)
	}
	nSub, err := r.uvarint()
	if err != nil || nSub > syncWireMaxLen {
		return out, errFrame
	}
	for i := uint64(0); i < nSub; i++ {
		var st SyncSubtree
		if st.Key, err = r.bytes(); err != nil {
			return out, err
		}
		nRows, err := r.uvarint()
		if err != nil || nRows > syncWireMaxLen {
			return out, errFrame
		}
		for j := uint64(0); j < nRows; j++ {
			row, err := r.row()
			if err != nil {
				return out, err
			}
			st.Rows = append(st.Rows, row)
		}
		out.Subtrees = append(out.Subtrees, st)
	}
	if len(r.buf) != 0 {
		return out, errFrame
	}
	return out, nil
}

// The request frame mirrors the response frame's varint style:
//
//	version byte (syncWireVersion)
//	shareID: len ‖ bytes
//	minSeq
//	span
//	node-key count, then per key: len ‖ bytes
//	row-key count, then per key: len ‖ bytes
//	requester: len ‖ raw address bytes (must be identity.AddressLen)
//	pubKey: len ‖ bytes
//	tsMicro (int64 as uint64)
//	sig: len ‖ bytes

// appendSyncRequest encodes r into the binary request frame.
func appendSyncRequest(dst []byte, r *SyncRequest) []byte {
	dst = append(dst, syncWireVersion)
	dst = wire.AppendBytes(dst, r.ShareID)
	dst = binary.AppendUvarint(dst, r.MinSeq)
	dst = binary.AppendUvarint(dst, uint64(r.Span))
	dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		dst = wire.AppendBytes(dst, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.RowKeys)))
	for _, k := range r.RowKeys {
		dst = wire.AppendBytes(dst, k)
	}
	dst = wire.AppendBytes(dst, r.Requester[:])
	dst = wire.AppendBytes(dst, r.PubKey)
	dst = binary.AppendUvarint(dst, uint64(r.TsMicro))
	return wire.AppendBytes(dst, r.Sig)
}

func (r *frameReader) keyList() ([][]byte, error) {
	n, err := r.uvarint()
	if err != nil || n > syncWireMaxLen {
		return nil, errFrame
	}
	// A key is at least one length byte; reject counts the buffer cannot
	// possibly satisfy before allocating.
	if n > uint64(len(r.buf)) {
		return nil, errFrame
	}
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// decodeSyncRequest parses a frame produced by appendSyncRequest.
func decodeSyncRequest(raw []byte) (SyncRequest, error) {
	r := frameReader{buf: raw}
	var out SyncRequest
	ver, err := r.byte()
	if err != nil || ver != syncWireVersion {
		return out, errFrame
	}
	id, err := r.bytes()
	if err != nil {
		return out, err
	}
	out.ShareID = string(id)
	if out.MinSeq, err = r.uvarint(); err != nil {
		return out, err
	}
	span, err := r.uvarint()
	if err != nil || span > syncMaxSpan {
		return out, errFrame
	}
	out.Span = int(span)
	if out.Keys, err = r.keyList(); err != nil {
		return out, err
	}
	if out.RowKeys, err = r.keyList(); err != nil {
		return out, err
	}
	addr, err := r.bytes()
	if err != nil {
		return out, err
	}
	if len(addr) != len(out.Requester) {
		return out, errFrame
	}
	copy(out.Requester[:], addr)
	if out.PubKey, err = r.bytes(); err != nil {
		return out, err
	}
	ts, err := r.uvarint()
	if err != nil {
		return out, err
	}
	out.TsMicro = int64(ts)
	if out.Sig, err = r.bytes(); err != nil {
		return out, err
	}
	if len(r.buf) != 0 {
		return out, errFrame
	}
	return out, nil
}
