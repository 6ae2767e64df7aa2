package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/reldb"
)

// FuzzWALRecords drives the frame scanner and the typed record codecs
// with arbitrary bytes: scanning must never panic and must never hand
// back a record whose checksum does not verify (torn/corrupt tails are
// rejected, not misread); a valid frame must round-trip identically;
// every binary record that decodes must re-encode to its exact payload.
func FuzzWALRecords(f *testing.F) {
	// Seeds: a healthy two-record stream, a torn tail, a bit-flipped
	// frame, raw garbage, an empty node record, node records, and a
	// segment opening with its format frame.
	good := appendFrame(nil, kindTableRoot, appendTableRootRec(nil, TableRoot{Schema: testSchema("t"), Rows: 1}))
	good = appendFrame(good, kindCommit, appendCommitRec(nil, commitRec{Seq: 1}))
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
	// A leaf (no children) holding a Latin-1 cell and a NaN, committed
	// behind a table root.
	nd.Left, nd.Right = [digLen]byte{}, [digLen]byte{}
	nd.Row = reldb.Row{reldb.I(-1), reldb.S("caf\xe9"), reldb.F(math.NaN()), reldb.Null()}
	node := appendFrame(nil, kindNode, appendNodeRec(nil, nd))
	f.Add(appendFrame(append(node, good...), kindCommit, appendCommitRec(nil, commitRec{Seq: 2, Clean: true})))
	seg := appendFrame(nil, kindFormat, appendFormatRec(nil))
	seg = appendFrame(seg, kindBlock, chain.AppendBlockBinary(nil, chain.Genesis("fuzz")))
	seg = appendFrame(seg, kindShareMeta, appendShareMetaRec(nil, ShareMeta{ID: "s", Seq: 3, Source: "src", View: "v", PrioSeed: []byte{9}}))
	f.Add(appendFrame(seg, kindCommit, appendCommitRec(nil, commitRec{Seq: 1})))

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
		// a binary record that decodes must re-encode to its exact bytes.
		for _, r := range seen {
			var again []byte
			switch r.kind {
			case kindNode:
				nd, err := decodeNodeRec(r.payload)
				if err != nil {
					continue
				}
				again = appendNodeRec(nil, nd)
			case kindBlock:
				b, err := decodeBlockRec(r.payload)
				if err != nil {
					continue
				}
				again = chain.AppendBlockBinary(nil, b)
			case kindTableRoot:
				tr, err := decodeTableRootRec(r.payload)
				if err != nil {
					continue
				}
				again = appendTableRootRec(nil, tr)
			case kindShareMeta:
				sm, err := decodeShareMetaRec(r.payload)
				if err != nil {
					continue
				}
				again = appendShareMetaRec(nil, sm)
			case kindCommit:
				cr, err := decodeCommitRec(r.payload)
				if err != nil {
					continue
				}
				again = appendCommitRec(nil, cr)
			case kindFormat:
				v, err := decodeFormatRec(r.payload)
				if err != nil {
					continue
				}
				again = binary.AppendUvarint(nil, v)
			default:
				_, _ = decodeStateRec(r.payload)
				continue
			}
			if !bytes.Equal(again, r.payload) {
				t.Fatalf("decoded kind %d record does not re-encode to its payload", r.kind)
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
	e0 := segEntry{kind: kindFormat, size: formatFrameLen}
	e1 := segEntry{kind: kindNode, off: e0.size, size: 100}
	e1.dig[0] = 7
	e2 := segEntry{kind: kindCommit, off: e1.off + e1.size, size: frameHdrLen + 2}
	f.Add(encodeSegIndex([]segEntry{e0, e1, e2}))
	// A truncated and a bit-flipped index.
	enc := encodeSegIndex([]segEntry{e0, e1})
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
		off := int64(0)
		for _, e := range entries {
			if e.size < frameHdrLen || e.off != off {
				t.Fatalf("accepted out-of-range entry %+v", e)
			}
			off += e.size
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
