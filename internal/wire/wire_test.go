package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestUvarint: every value round-trips through its minimal encoding,
// and a truncated, padded or overflowing encoding is refused.
func TestUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 56, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		if got, n := Uvarint(append(enc, 0xff)); got != v || n != len(enc) {
			t.Fatalf("%d: got %d in %d bytes, want %d bytes", v, got, n, len(enc))
		}
		if _, n := Uvarint(enc[:len(enc)-1]); n != 0 {
			t.Fatalf("%d: truncated encoding accepted", v)
		}
	}
	for name, p := range map[string][]byte{
		"padded zero":  {0x80, 0x00},
		"padded one":   {0x81, 0x80, 0x00},
		"eleven bytes": bytes.Repeat([]byte{0xff}, 11),
	} {
		if _, n := Uvarint(p); n != 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAppendBytes: a string and a byte slice of the same bytes encode
// alike, behind their varint length.
func TestAppendBytes(t *testing.T) {
	b := bytes.Repeat([]byte{'x'}, 200)
	enc := AppendBytes([]byte{9}, b)
	if !bytes.Equal(enc, AppendBytes([]byte{9}, string(b))) {
		t.Fatal("string and []byte encode differently")
	}
	n, k := Uvarint(enc[1:])
	if n != 200 || !bytes.Equal(enc[1+k:], b) {
		t.Fatalf("length %d, payload %d bytes", n, len(enc[1+k:]))
	}
}
