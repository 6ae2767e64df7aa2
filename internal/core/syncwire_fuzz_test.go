package core

import (
	"bytes"
	"testing"

	"medshare/internal/identity"
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
