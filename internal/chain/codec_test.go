package chain

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"medshare/internal/identity"
)

// sampleBlock is a sealed-looking block with two signed transactions, a
// negative timestamp and an empty argument.
func sampleBlock() *Block {
	id := identity.FromSeed("a", "chain/codec-test")
	var txs []*Tx
	for i, share := range []string{"s1", "s2"} {
		tx := &Tx{
			Contract: "sharereg", Fn: "request_update", ShareID: share,
			Args:  [][]byte{[]byte(`{"shareId":"` + share + `"}`), {}},
			Nonce: uint64(i + 1), TimestampMicro: -int64(i),
		}
		tx.Sign(id)
		txs = append(txs, tx)
	}
	b := &Block{Header: Header{
		Height: 300, PrevHash: Genesis("t").Hash(), TimestampMicro: 1 << 50,
		Proposer: id.Address(), ProposerPub: id.PublicKey(), Sig: []byte("seal"),
	}, Txs: txs}
	b.Header.TxRoot = b.ComputeTxRoot()
	return b
}

// TestBlockCodecRoundTrip: a block, a transaction and a batch come back
// with the same hash, tx root, IDs and bytes, and own their memory.
func TestBlockCodecRoundTrip(t *testing.T) {
	b := sampleBlock()
	enc := AppendBlockBinary(nil, b)
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() || got.ComputeTxRoot() != b.Header.TxRoot || got.VerifyStructure(nil) != nil {
		t.Fatal("decoded block differs")
	}
	if !bytes.Equal(AppendBlockBinary(nil, got), enc) {
		t.Fatal("decoded block does not re-encode to its bytes")
	}
	for i := range enc {
		enc[i] = 0
	}
	if got.Txs[0].Contract != "sharereg" || got.Txs[0].Verify() != nil {
		t.Fatal("decoded block aliases its input")
	}

	tx, err := DecodeTx(AppendTxBinary(nil, b.Txs[1]))
	if err != nil || tx.ID() != b.Txs[1].ID() {
		t.Fatalf("tx round trip: %v", err)
	}
	txs, err := DecodeTxBatch(AppendTxBatchBinary(nil, b.Txs))
	if err != nil || len(txs) != 2 || txs[0].ID() != b.Txs[0].ID() || txs[1].ID() != b.Txs[1].ID() {
		t.Fatalf("batch round trip: %v", err)
	}
	if g, err := DecodeBlock(AppendBlockBinary(nil, Genesis("t"))); err != nil || g.Hash() != Genesis("t").Hash() {
		t.Fatalf("genesis round trip: %v", err)
	}
}

// TestBlockCodecLargeArgument: the decoder accepts every length the
// encoder writes; an argument over a mebibyte comes back whole.
func TestBlockCodecLargeArgument(t *testing.T) {
	b := sampleBlock()
	b.Txs[0].Args[1] = bytes.Repeat([]byte{0xa5}, 1<<20+1)
	b.Header.TxRoot = b.ComputeTxRoot()
	got, err := DecodeBlock(AppendBlockBinary(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() || got.ComputeTxRoot() != b.Header.TxRoot || !bytes.Equal(got.Txs[0].Args[1], b.Txs[0].Args[1]) {
		t.Fatal("decoded block differs")
	}
	if tx, err := DecodeTx(AppendTxBinary(nil, b.Txs[0])); err != nil || tx.ID() != b.Txs[0].ID() {
		t.Fatalf("tx round trip: %v", err)
	}
}

// TestBlockCodecRejects: a wrong version, any truncation, trailing bytes
// and a non-minimal varint are refused.
func TestBlockCodecRejects(t *testing.T) {
	enc := AppendBlockBinary(nil, sampleBlock())
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBlock(enc[:i]); !errors.Is(err, errBlockWire) {
			t.Fatalf("truncated at %d: %v", i, err)
		}
	}
	bad := map[string][]byte{
		"trailing": append(append([]byte(nil), enc...), 0),
		"version":  append([]byte{blockCodecVersion + 1}, enc[1:]...),
		// Height 0 written as two bytes.
		"non-minimal": append([]byte{blockCodecVersion, 0x80, 0x00}, AppendBlockBinary(nil, Genesis("t"))[2:]...),
	}
	for name, p := range bad {
		if _, err := DecodeBlock(p); !errors.Is(err, errBlockWire) {
			t.Errorf("%s: %v", name, err)
		}
	}
	tx := AppendTxBinary(nil, sampleBlock().Txs[0])
	if _, err := DecodeTx(append(tx, 1)); !errors.Is(err, errBlockWire) {
		t.Errorf("tx with trailing byte: %v", err)
	}
	if _, err := DecodeTxBatch(tx); !errors.Is(err, errBlockWire) {
		t.Errorf("a tx read as a batch: %v", err)
	}
}

// FuzzBlockCodec drives the block decoder with arbitrary bytes: it may
// not panic, an accepted frame must re-encode to exactly its input and
// decode again to the same hash and tx root, and any single-byte change
// or trailing byte must either be refused or change the block's hash or
// tx root — no second frame passes for the same block.
func FuzzBlockCodec(f *testing.F) {
	f.Add(AppendBlockBinary(nil, sampleBlock()))
	f.Add(AppendBlockBinary(nil, Genesis("t")))
	f.Add(AppendTxBatchBinary(nil, sampleBlock().Txs))
	f.Add([]byte{blockCodecVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		enc := AppendBlockBinary(nil, b)
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted block does not re-encode to its input")
		}
		again, err := DecodeBlock(enc)
		if err != nil || again.Hash() != b.Hash() || again.ComputeTxRoot() != b.ComputeTxRoot() {
			t.Fatal("re-decoded block differs")
		}
		if _, err := DecodeBlock(append(enc, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		for i := 0; i < len(data); i += 1 + len(data)/16 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x01
			if m, err := DecodeBlock(mut); err == nil && m.Hash() == b.Hash() && m.ComputeTxRoot() == b.ComputeTxRoot() {
				t.Fatalf("byte %d changed and the block still reads the same", i)
			}
		}
	})
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzHeaderCodec drives the header-batch decoder with arbitrary bytes:
// it may not panic or allocate more than a fixed multiple of its input
// (a count is checked against the frame before it sizes the batch), and
// an accepted frame must re-encode to exactly its input.
func FuzzHeaderCodec(f *testing.F) {
	f.Add(EncodeHeaders([]Header{Genesis("t").Header, sampleBlock().Header}))
	f.Add(EncodeHeaders(nil))
	f.Add([]byte{headerWireVersion, 0x80, 0x80, 0x40}) // 1<<20 headers, no bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			hs    []Header
			err   error
			limit = 256*uint64(len(data)) + 1<<20
		)
		if n := allocBytes(func() { hs, err = DecodeHeaders(data) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil && !bytes.Equal(EncodeHeaders(hs), data) {
			t.Fatal("accepted header frame does not re-encode to its input")
		}
		if err != nil && !errors.Is(err, errBlockWire) {
			t.Fatalf("rejection %v is not errBlockWire", err)
		}
	})
}
