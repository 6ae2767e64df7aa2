package store

import (
	"bytes"
	"math"
	"testing"

	"medshare/internal/reldb"
)

// FuzzWALRecords drives the frame scanner and the typed record codecs
// with arbitrary bytes: scanning must never panic and must never hand
// back a record whose checksum does not verify (torn/corrupt tails are
// rejected, not misread); a valid frame must round-trip identically;
// node records must decode/encode to a fixed point.
func FuzzWALRecords(f *testing.F) {
	// Seeds: a healthy two-record stream, a torn tail, a bit-flipped
	// frame, raw garbage, and a zero-length record.
	good := appendFrame(nil, kindTableRoot, []byte(`{"name":"t","rows":1}`))
	good = appendFrame(good, kindCommit, []byte(`{"seq":1}`))
	f.Add(good)
	f.Add(good[:len(good)-3])
	flipped := append([]byte(nil), good...)
	flipped[12] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("not a log at all"))
	f.Add(appendFrame(nil, kindNode, nil))
	nd := reldb.NodeData{}
	nd.Digest[0], nd.Left[1], nd.Right[2] = 1, 2, 3
	nd.Row = reldb.Row{reldb.I(42), reldb.S("x")}
	f.Add(appendFrame(nil, kindNode, appendNodeRec(nil, nd)))
	// A node record in the binary row format holding a Latin-1 cell and
	// a NaN, committed behind a table root.
	nd.Row = reldb.Row{reldb.I(-1), reldb.S("caf\xe9"), reldb.F(math.NaN()), reldb.Null()}
	node := appendFrame(nil, kindNode, appendNodeRec(nil, nd))
	f.Add(appendFrame(append(node, good...), kindCommit, []byte(`{"seq":2}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Arbitrary bytes: scan terminates without panic, and every
		// record it yields re-frames to the exact bytes it came from —
		// i.e. nothing is accepted whose framing+CRC would not reproduce.
		var seen []struct {
			kind    byte
			payload []byte
			off     int64
		}
		valid, tailErr := scanFrames(data, func(kind byte, payload []byte, off int64) bool {
			seen = append(seen, struct {
				kind    byte
				payload []byte
				off     int64
			}{kind, append([]byte(nil), payload...), off})
			return true
		})
		if valid > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds input length %d", valid, len(data))
		}
		if tailErr == nil && valid != int64(len(data)) {
			t.Fatalf("clean scan stopped early: %d of %d", valid, len(data))
		}
		var rebuilt []byte
		for _, r := range seen {
			rebuilt = appendFrame(rebuilt, r.kind, r.payload)
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatal("accepted records do not re-encode to the accepted prefix")
		}

		// 2. Typed decoders must not panic on any accepted payload, and
		// a node record that decodes must re-encode to its exact bytes.
		for _, r := range seen {
			switch r.kind {
			case kindNode:
				nd, err := decodeNodeRec(r.payload)
				if err != nil {
					continue
				}
				if !bytes.Equal(appendNodeRec(nil, nd), r.payload) {
					t.Fatal("decoded node record does not re-encode to its payload")
				}
			case kindBlock:
				_, _ = decodeBlockRec(r.payload)
			case kindTableRoot:
				var tr TableRoot
				_ = jsonUnmarshal(r.payload, &tr)
			case kindShareMeta:
				var sm ShareMeta
				_ = jsonUnmarshal(r.payload, &sm)
			case kindState:
				var cp StateCheckpoint
				_ = jsonUnmarshal(r.payload, &cp)
			case kindCommit:
				var cr commitRec
				_ = jsonUnmarshal(r.payload, &cr)
			}
		}

		// 3. Round-trip direction: treat the fuzz input as a payload,
		// frame it, and require exact recovery — including when garbage
		// follows the frame (tail rejection must not eat the valid part).
		framed := appendFrame(nil, kindBlock, data)
		kind, payload, size, err := parseFrame(framed)
		if err != nil || kind != kindBlock || !bytes.Equal(payload, data) || size != int64(len(framed)) {
			t.Fatal("frame round trip failed")
		}
		withTail := append(append([]byte(nil), framed...), 0xde, 0xad)
		n := 0
		valid, tailErr = scanFrames(withTail, func(_ byte, p []byte, _ int64) bool {
			n++
			if !bytes.Equal(p, data) {
				t.Fatal("payload corrupted by trailing garbage")
			}
			return true
		})
		if n != 1 || valid != int64(len(framed)) || tailErr == nil {
			t.Fatal("torn tail after a valid frame not classified correctly")
		}
	})
}

// FuzzSegmentIndex drives the sealed-segment index codec: decoding
// arbitrary bytes must never panic or accept structurally damaged
// input silently, and every decodable index must round-trip
// identically through encode.
func FuzzSegmentIndex(f *testing.F) {
	f.Add(encodeSegIndex(nil))
	var e1, e2 segEntry
	e1.kind, e1.off, e1.size = kindNode, 0, 100
	e1.dig[0] = 7
	e2.kind, e2.off, e2.size = kindCommit, 100, frameHdrLen+12
	f.Add(encodeSegIndex([]segEntry{e1, e2}))
	// A truncated and a bit-flipped index.
	enc := encodeSegIndex([]segEntry{e1})
	f.Add(enc[:len(enc)-6])
	flipped := append([]byte(nil), enc...)
	flipped[9] ^= 1
	f.Add(flipped)
	f.Add([]byte("MSIX"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeSegIndex(data)
		if err != nil {
			return
		}
		// Accepted ⇒ exact round trip (no silent normalization).
		if !bytes.Equal(encodeSegIndex(entries), data) {
			t.Fatal("decoded index does not re-encode to input")
		}
		for _, e := range entries {
			if e.size < frameHdrLen || e.off < 0 {
				t.Fatalf("accepted out-of-range entry %+v", e)
			}
		}
		// Mutating any single byte of a valid encoding must be rejected
		// (checksum coverage is total). Probe a few positions derived
		// from the data itself to keep the fuzz cheap.
		for i := 0; i < len(data); i += 1 + len(data)/7 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x10
			if got, err := decodeSegIndex(mut); err == nil {
				if bytes.Equal(encodeSegIndex(got), data) {
					continue // flip landed in a byte the codec canonicalizes — impossible by construction
				}
				t.Fatalf("single-byte corruption at %d accepted", i)
			}
		}
	})
}
