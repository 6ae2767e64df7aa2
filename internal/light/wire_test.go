package light

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"medshare/internal/reldb"
	"medshare/internal/reldb/pmap"
	"medshare/internal/statedb"
	"medshare/internal/wire"
)

func sampleShareHead() *ShareHead {
	return &ShareHead{
		Height: 300, Meta: []byte(`{"seq":4}`), Version: statedb.Version{Height: 299, TxIndex: 2},
		Proof: pmap.Proof{Right: pmap.Hash{1}, Steps: []pmap.ProofStep{{Entry: pmap.Hash{2}, Other: pmap.Hash{3}, PathLeft: true}, {Entry: pmap.Hash{4}}}},
	}
}

func sampleRowFetch() *RowFetch {
	return &RowFetch{
		Seq: 4, SchemaSum: [32]byte{5}, Rows: 2, Root: [32]byte{6},
		Schema: reldb.Schema{Name: "v", Columns: []reldb.Column{{Name: "k", Type: reldb.KindInt}, {Name: "s", Type: reldb.KindString, Nullable: true}}, Key: []string{"k"}},
		Row:    reldb.Row{reldb.I(3), reldb.S("caf\xe9")},
		Proof:  pmap.Proof{Left: pmap.Hash{7}, Steps: []pmap.ProofStep{{Entry: pmap.Hash{8}, Other: pmap.Hash{9}, PathLeft: true}, {Entry: pmap.Hash{10}}}},
	}
}

// spacedSchemaFetch is a row fetch whose schema JSON carries a leading
// space: it parses to the same schema, which encodes without it.
func spacedSchemaFetch() []byte {
	f := sampleRowFetch()
	schema, _ := json.Marshal(f.Schema)
	dst := binary.AppendUvarint([]byte{wireVersion}, f.Seq)
	dst = append(dst, f.SchemaSum[:]...)
	dst = binary.AppendUvarint(dst, uint64(f.Rows))
	dst = append(dst, f.Root[:]...)
	dst = wire.AppendBytes(dst, append([]byte{' '}, schema...))
	dst = f.Row.AppendCanonical(dst)
	return append(append(append(dst, f.Proof.Left[:]...), f.Proof.Right[:]...), 0)
}

// TestWireRejectsNonCanonical: a flag byte other than 0 or 1 and schema
// JSON in other than its canonical bytes are refused; each would decode
// to a frame that re-encodes to different bytes.
func TestWireRejectsNonCanonical(t *testing.T) {
	head, fetch := EncodeShareHead(sampleShareHead()), EncodeRowFetch(sampleRowFetch())
	if _, err := DecodeShareHead(head); err != nil {
		t.Fatalf("genuine share head: %v", err)
	}
	if _, err := DecodeRowFetch(fetch); err != nil {
		t.Fatalf("genuine row fetch: %v", err)
	}
	withLast := func(p []byte, b byte) []byte {
		p = append([]byte(nil), p...)
		p[len(p)-1] = b
		return p
	}
	for name, p := range map[string][]byte{
		"share head PathLeft 2":    withLast(head, 2),
		"share head PathLeft 0xff": withLast(head, 0xff),
	} {
		if _, err := DecodeShareHead(p); !errors.Is(err, ErrWire) {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, p := range map[string][]byte{
		"row fetch PathLeft 2":    withLast(fetch, 2),
		"row fetch PathLeft 0x80": withLast(fetch, 0x80),
		"spaced schema":           spacedSchemaFetch(),
	} {
		if _, err := DecodeRowFetch(p); !errors.Is(err, ErrWire) {
			t.Errorf("%s: %v", name, err)
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

// FuzzLightWire fuzzes the share-head and row-fetch frames: no input may
// panic or allocate more than a fixed multiple of its length, and an
// accepted input re-encodes to exactly itself.
func FuzzLightWire(f *testing.F) {
	f.Add(EncodeShareHead(sampleShareHead()))
	f.Add(EncodeShareHead(&ShareHead{}))
	f.Add(EncodeRowFetch(sampleRowFetch()))
	f.Add(spacedSchemaFetch())
	f.Add([]byte{wireVersion, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			head  ShareHead
			fetch RowFetch
			errs  [2]error
			limit = 256*uint64(len(data)) + 1<<20
		)
		if n := allocBytes(func() {
			head, errs[0] = DecodeShareHead(data)
			fetch, errs[1] = DecodeRowFetch(data)
		}); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if errs[0] == nil && !bytes.Equal(EncodeShareHead(&head), data) {
			t.Fatal("accepted share head does not re-encode to its input")
		}
		if errs[1] == nil && !bytes.Equal(EncodeRowFetch(&fetch), data) {
			t.Fatal("accepted row fetch does not re-encode to its input")
		}
	})
}
