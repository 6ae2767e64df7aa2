package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/wire"
)

// FuzzSyncRequestWire fuzzes the binary sync-request frame codec:
// arbitrary input must never panic; any input that decodes is
// re-encoded and must reproduce the input byte for byte (an overlong
// varint is rejected, not normalized) and round-trip to identical
// fields; every strict prefix of a canonical frame, and any frame with
// trailing garbage, must be rejected. The decoder's span cap (the
// response-amplification guard) must hold on every accepted frame.
func FuzzSyncRequestWire(f *testing.F) {
	var addr identity.Address
	for i := range addr {
		addr[i] = byte(i)
	}
	seed := func(r *SyncRequest) { f.Add(appendSyncRequest(nil, r)) }
	seed(&SyncRequest{ShareID: "S", Requester: addr})
	seed(&SyncRequest{
		ShareID: "D13&D31", MinSeq: 7, Span: 2,
		HaveSeq:   6,
		HaveRoot:  bytes.Repeat([]byte{0xcc}, 32),
		Keys:      [][]byte{{0x01}, {0x02, 0xff, 0x00}},
		RowKeys:   [][]byte{{0x03, 0x04}},
		Requester: addr,
		PubKey:    bytes.Repeat([]byte{0xaa}, 32),
		TsMicro:   1700000000000000,
		Sig:       bytes.Repeat([]byte{0xbb}, 64),
	})
	seed(&SyncRequest{ShareID: "", Span: syncMaxSpan, Requester: addr, TsMicro: -1})
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{syncWireVersion})
	f.Add([]byte{syncWireVersion, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := decodeSyncRequest(raw)
		if err != nil {
			return // rejected garbage: the only requirement is no panic
		}
		if req.Span < 0 || req.Span > syncMaxSpan {
			t.Fatalf("decoded span %d outside [0, %d]", req.Span, syncMaxSpan)
		}
		canon := appendSyncRequest(nil, &req)
		if !bytes.Equal(canon, raw) {
			t.Fatalf("accepted a frame that is not the canonical encoding of what it decodes to:\n%x\n%x", raw, canon)
		}
		re, err := decodeSyncRequest(canon)
		if err != nil {
			t.Fatalf("canonical re-decode failed: %v", err)
		}
		if re.ShareID != req.ShareID || re.MinSeq != req.MinSeq || re.Span != req.Span ||
			re.HaveSeq != req.HaveSeq || !bytes.Equal(re.HaveRoot, req.HaveRoot) ||
			re.Requester != req.Requester || re.TsMicro != req.TsMicro ||
			!bytes.Equal(re.PubKey, req.PubKey) || !bytes.Equal(re.Sig, req.Sig) ||
			len(re.Keys) != len(req.Keys) || len(re.RowKeys) != len(req.RowKeys) {
			t.Fatalf("round-trip mismatch:\n%+v\n%+v", req, re)
		}
		for i := range req.Keys {
			if !bytes.Equal(re.Keys[i], req.Keys[i]) {
				t.Fatalf("key %d mismatch", i)
			}
		}
		for i := range req.RowKeys {
			if !bytes.Equal(re.RowKeys[i], req.RowKeys[i]) {
				t.Fatalf("row key %d mismatch", i)
			}
		}
		if !bytes.Equal(appendSyncRequest(nil, &re), canon) {
			t.Fatal("re-encoding the round-tripped request diverged")
		}
		// Truncation: no strict prefix of a canonical frame may decode.
		for _, cut := range []int{0, 1, len(canon) / 2, len(canon) - 1} {
			if cut >= len(canon) {
				continue
			}
			if _, err := decodeSyncRequest(canon[:cut]); err == nil {
				t.Fatalf("strict prefix of length %d/%d decoded", cut, len(canon))
			}
		}
		// Trailing garbage after a complete frame must be rejected.
		withTail := append(append([]byte(nil), canon...), 0x00)
		if _, err := decodeSyncRequest(withTail); err == nil {
			t.Fatal("frame with trailing byte decoded")
		}
	})
}

// sampleSyncResponse has a node with one child, a node with none, and a
// subtree of two rows.
func sampleSyncResponse() *SyncResponse {
	return &SyncResponse{
		ShareID: "D13&D31", Seq: 9, Root: bytes.Repeat([]byte{0xab}, 32),
		Nodes: []SyncNode{
			{Key: []byte{1}, Row: reldb.Row{reldb.I(1), reldb.S("caf\xe9")}},
			{Key: []byte{2}, Row: reldb.Row{reldb.I(2)}, Left: &SyncChild{Key: []byte{3}, Digest: bytes.Repeat([]byte{4}, 32), Size: 5}},
		},
		Subtrees: []SyncSubtree{{Key: []byte{6}, Rows: []reldb.Row{{reldb.I(7)}, {reldb.Null()}}}},
	}
}

// TestSyncResponseRejectsUndefinedBits: a flags byte other than 0 (a
// walk round), 1 (an empty view) or 2 (a delta answer) and a child mask
// with a bit other than bits 0-1 are refused; each would decode to a
// response that re-encodes to different bytes.
func TestSyncResponseRejectsUndefinedBits(t *testing.T) {
	resp := sampleSyncResponse()
	enc := appendSyncResponse(nil, resp)
	if _, err := decodeSyncResponse(enc); err != nil {
		t.Fatalf("genuine frame: %v", err)
	}
	head := appendSyncResponse(nil, &SyncResponse{ShareID: resp.ShareID, Seq: resp.Seq, Root: resp.Root})
	flagsAt := len(head) - 3 // flags byte, then the two empty counts
	node := resp.Nodes[0]
	maskAt := flagsAt + 2 + len(wire.AppendBytes(nil, node.Key)) + len(node.Row.AppendCanonical(nil))
	for _, c := range []struct {
		name string
		at   int
		b    byte
	}{
		{"flags 0x03", flagsAt, 0x03},
		{"flags 0x04", flagsAt, 0x04},
		{"flags 0x80", flagsAt, 0x80},
		{"child mask 0x04", maskAt, 0x04},
		{"child mask 0x80", maskAt, 0x80},
	} {
		bad := append([]byte(nil), enc...)
		bad[c.at] = c.b
		if _, err := decodeSyncResponse(bad); !errors.Is(err, errFrame) {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sampleDelta is a delta answer's changeset: one insert, one delete,
// one update.
func sampleDelta() *reldb.Changeset {
	return &reldb.Changeset{
		Inserted: []reldb.Row{{reldb.I(1), reldb.S("caf\xe9")}},
		Deleted:  []reldb.Row{{reldb.I(2), reldb.Null()}},
		Updated:  []reldb.RowChange{{Before: reldb.Row{reldb.I(3), reldb.S("a")}, After: reldb.Row{reldb.I(3), reldb.S("b")}}},
	}
}

// FuzzSyncResponseWire fuzzes the sync-response frame, walk rounds and
// delta answers alike: no input may panic or allocate more than a fixed
// multiple of its length, and an accepted input re-encodes to exactly
// itself.
func FuzzSyncResponseWire(f *testing.F) {
	f.Add(appendSyncResponse(nil, sampleSyncResponse()))
	f.Add(appendSyncResponse(nil, &SyncResponse{ShareID: "S", Empty: true}))
	f.Add(appendSyncResponse(nil, &SyncResponse{ShareID: "S", Seq: 3, Root: bytes.Repeat([]byte{0xab}, 32), Delta: sampleDelta()}))
	f.Add(appendSyncResponse(nil, &SyncResponse{Delta: &reldb.Changeset{}}))
	f.Add([]byte{syncWireVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			resp  SyncResponse
			err   error
			limit = 256*uint64(len(data)) + 1<<20
		)
		if n := allocBytes(func() { resp, err = decodeSyncResponse(data) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil && !bytes.Equal(appendSyncResponse(nil, &resp), data) {
			t.Fatal("accepted sync response does not re-encode to its input")
		}
	})
}
