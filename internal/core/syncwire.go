package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"medshare/internal/p2p"
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
// signature preimage. Both frames are read through a wire.Reader.
//
// Response frame layout (all integers varint unless noted):
//
//	version byte (syncWireVersion)
//	shareID: len ‖ bytes
//	seq
//	root: len ‖ raw bytes (32)
//	flags byte (bit0 = empty view, bit1 = delta answer)
//	delta answer: the changeset (reldb.AppendChangeset) ends the frame
//	otherwise node count, then per node:
//	  key: len ‖ bytes
//	  row: canonical encoding
//	  child mask byte (bit0 left, bit1 right), then per present child:
//	    key: len ‖ bytes, digest: len ‖ raw bytes, size
//	subtree count, then per subtree:
//	  key: len ‖ bytes
//	  row count, then per row: canonical encoding

// syncWireVersion tags the frame layout. Version 2 replaced
// length-prefixed JSON rows with canonical rows; version 3 added the
// request's HaveSeq and HaveRoot and the delta answer.
const syncWireVersion = 3

// syncWireMaxLen bounds a child summary's Size, so it fits an int on
// every platform. Lengths and counts need no cap: wire.Reader refuses
// one the frame cannot hold.
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
	if r.Delta != nil {
		return reldb.AppendChangeset(append(dst, flags|2), *r.Delta)
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

// Minimum encoded sizes: a node is a key length, a row's 8-byte count
// and the mask byte; a subtree a key length and a row count.
const (
	minSyncNodeLen    = 1 + 8 + 1
	minSyncSubtreeLen = 1 + 1
)

// newFrameReader returns a reader over a data-channel frame past its
// version byte.
func newFrameReader(raw []byte) wire.Reader {
	r := wire.NewReader(raw, errFrame)
	if r.Byte() != syncWireVersion {
		r.Fail("frame version")
	}
	return r
}

func readSyncChild(r *wire.Reader) *SyncChild {
	c := &SyncChild{Key: r.Bytes(), Digest: r.Bytes()}
	size := r.Uvarint()
	if size > syncWireMaxLen {
		r.Fail("child size")
	}
	c.Size = int(size)
	return c
}

// decodeSyncResponse parses a frame produced by appendSyncResponse.
// Keys, roots and digests alias raw.
func decodeSyncResponse(raw []byte) (SyncResponse, error) {
	r := newFrameReader(raw)
	out := SyncResponse{ShareID: string(r.Bytes()), Seq: r.Uvarint(), Root: r.Bytes()}
	switch flags := r.Byte(); flags {
	case 0:
	case 1:
		out.Empty = true
	case 2:
		cs := reldb.ReadChangeset(&r)
		out.Delta = &cs
		return out, r.Done()
	default:
		r.Fail("flags")
	}
	out.Nodes = make([]SyncNode, r.Count(minSyncNodeLen))
	for i := range out.Nodes {
		n := &out.Nodes[i]
		n.Key = r.Bytes()
		n.Row = reldb.ReadRow(&r)
		mask := r.Byte()
		if mask&^3 != 0 {
			r.Fail("child mask")
		}
		if mask&1 != 0 {
			n.Left = readSyncChild(&r)
		}
		if mask&2 != 0 {
			n.Right = readSyncChild(&r)
		}
	}
	out.Subtrees = make([]SyncSubtree, r.Count(minSyncSubtreeLen))
	for i := range out.Subtrees {
		st := &out.Subtrees[i]
		st.Key = r.Bytes()
		st.Rows = make([]reldb.Row, r.Count(8))
		for j := range st.Rows {
			st.Rows[j] = reldb.ReadRow(&r)
		}
	}
	return out, r.Done()
}

// The request frame mirrors the response frame's varint style:
//
//	version byte (syncWireVersion)
//	shareID: len ‖ bytes
//	minSeq
//	haveSeq
//	haveRoot: len ‖ raw bytes
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
	dst = binary.AppendUvarint(dst, r.HaveSeq)
	dst = wire.AppendBytes(dst, r.HaveRoot)
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

func readKeys(r *wire.Reader) [][]byte {
	keys := make([][]byte, r.Count(1)) // a key is at least its length byte
	for i := range keys {
		keys[i] = r.Bytes()
	}
	return keys
}

// The exchange's first request travels in a JSON envelope under
// p2p.KindDataFetch: the share and the wanted seq in the clear beside
// the request frame. The benchmark's tracer (bench/trace.go) finds an
// update's acquire by exactly that kind and those two fields, and its
// update spans go dark without them; the envelope goes once the tracer
// reads data.sync frames. The server reads only the frame, which it
// decodes and authorizes like any other.
type firstRequest struct {
	ShareID string `json:"shareId"`
	MinSeq  uint64 `json:"minSeq"`
	Frame   []byte `json:"frame"`
}

// envelopeFirstRequest wraps the encoded first request r.
func envelopeFirstRequest(r *SyncRequest, frame []byte) p2p.Message {
	payload, _ := json.Marshal(firstRequest{ShareID: r.ShareID, MinSeq: r.MinSeq, Frame: frame}) // a string, an int, bytes: cannot fail
	return p2p.Message{Kind: p2p.KindDataFetch, Payload: payload}
}

// openFirstRequest decodes the frame inside a first request's envelope.
func openFirstRequest(payload []byte) (SyncRequest, error) {
	var env firstRequest
	if err := json.Unmarshal(payload, &env); err != nil {
		return SyncRequest{}, err
	}
	return decodeSyncRequest(env.Frame)
}

// decodeSyncRequest parses a frame produced by appendSyncRequest. Keys,
// the root, the public key and the signature alias raw.
func decodeSyncRequest(raw []byte) (SyncRequest, error) {
	r := newFrameReader(raw)
	out := SyncRequest{ShareID: string(r.Bytes()), MinSeq: r.Uvarint(), HaveSeq: r.Uvarint(), HaveRoot: r.Bytes()}
	span := r.Uvarint()
	if span > syncMaxSpan {
		r.Fail("span")
	}
	out.Span = int(span)
	out.Keys = readKeys(&r)
	out.RowKeys = readKeys(&r)
	if addr := r.Bytes(); len(addr) == len(out.Requester) {
		copy(out.Requester[:], addr)
	} else {
		r.Fail("requester length")
	}
	out.PubKey = r.Bytes()
	out.TsMicro = int64(r.Uvarint())
	out.Sig = r.Bytes()
	return out, r.Done()
}
