package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
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

var errTest = errors.New("test frame")

// TestReaderFailureSticks: after the first failure every read returns
// its zero value and Done keeps reporting that failure.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 7, 1, 1, 1, 1, 1, 1, 1, 1}, errTest)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("overlong varint read as %d", v)
	}
	if r.Byte() != 0 || r.Bool() || r.U64() != 0 || r.Bytes() != nil || r.Count(1) != 0 {
		t.Fatal("a read after a failure returned a value")
	}
	r.Fail("second failure")
	err := r.Done()
	if !errors.Is(err, errTest) || !strings.Contains(err.Error(), "varint") || strings.Contains(err.Error(), "second") {
		t.Fatalf("Done = %v, want the first failure", err)
	}
}

// TestReaderRejects: each read refuses what its rules forbid, and the
// failure wraps the reader's sentinel.
func TestReaderRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"overlong varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"trailing byte", []byte{1, 2}, func(r *Reader) { r.Byte() }},
		{"count over input", []byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		{"count over minLen", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"u64 count over input", binary.BigEndian.AppendUint64(nil, 1), func(r *Reader) { r.CountU64(1) }},
		{"length over input", []byte{2, 'a'}, func(r *Reader) { r.Bytes() }},
		{"truncated u64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.U64() }},
		{"truncated fixed", []byte{1, 2, 3}, func(r *Reader) { r.Fixed(make([]byte, 4)) }},
		{"truncated raw", []byte{1, 2}, func(r *Reader) { r.Raw(3) }},
		{"negative raw length", []byte{1}, func(r *Reader) { r.Raw(-1) }},
	} {
		r := NewReader(c.in, errTest)
		c.read(&r)
		if err := r.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: Done = %v", c.name, err)
		}
	}
}

// TestReaderCount: a count the unread input cannot hold at minLen bytes
// per item reads as 0, so nothing is allocated for it; one it can hold
// reads as itself.
func TestReaderCount(t *testing.T) {
	huge := NewReader(binary.AppendUvarint(nil, math.MaxUint64), errTest)
	if n := huge.Count(1); n != 0 || huge.Done() == nil {
		t.Fatalf("count %d accepted from a 10-byte frame", n)
	}
	r := NewReader([]byte{2, 0, 0, 0, 0}, errTest)
	if n := r.Count(2); n != 2 || r.Raw(4) == nil || r.Done() != nil {
		t.Fatalf("count 2 of 2-byte items over 4 bytes: %d, %v", n, r.Done())
	}
}

// TestReaderBytesCapped: a field Bytes returns is capped at its length,
// so an append to it cannot write into the input; Bool accepts 0 and 1.
func TestReaderBytesCapped(t *testing.T) {
	in := []byte{2, 'a', 'b', 1, 0}
	r := NewReader(in, errTest)
	b := r.Bytes()
	if string(b) != "ab" || cap(b) != 2 {
		t.Fatalf("Bytes = %q, cap %d", b, cap(b))
	}
	_ = append(b, 'x')
	if !r.Bool() || r.Bool() || r.Done() != nil || in[3] != 1 {
		t.Fatalf("flags misread or input changed: %v %v", in, r.Done())
	}
}
