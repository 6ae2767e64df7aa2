// Package wire holds the byte-level pieces the binary codecs share: the
// varint length prefix every string and byte field rides behind, a
// varint reader that accepts only minimal encodings, and Reader, the one
// frame reader every decoder reads through.
//
// Reader's rules are the decoders' contract. Every read is checked
// against the unread input, so no decoder indexes past its frame. A
// varint must be minimal and a flag byte 0 or 1, so an accepted frame
// re-encodes to exactly its bytes. A length or count is refused before
// anything is allocated for it when the unread input cannot hold that
// many items, so what a frame allocates stays within a fixed multiple
// of its length. The first failure sticks: later reads return zero
// values, and Done reports that failure, or any bytes left unread,
// wrapping the sentinel error of the frame's family.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// AppendBytes appends b to dst behind its varint length.
func AppendBytes[T string | []byte](dst []byte, b T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Uvarint decodes the unsigned varint at the front of p and returns it
// with the number of bytes it took. n is 0 when p does not start with
// the minimal encoding of a value: truncated, overlong or padded.
func Uvarint(p []byte) (v uint64, n int) {
	v, n = binary.Uvarint(p)
	if n <= 0 || n != max(1, (bits.Len64(v)+6)/7) {
		return 0, 0
	}
	return v, n
}

// Reader reads one frame front to back. A decoder makes one per frame
// and reads its fields in a straight line; it checks for failure once,
// at Done. Slices it returns alias the input.
type Reader struct {
	buf []byte
	bad error // the sentinel every failure wraps
	err error // the first failure
}

// NewReader returns a Reader over p whose failures wrap bad.
func NewReader(p []byte, bad error) Reader { return Reader{buf: p, bad: bad} }

// Fail records a failure saying why, unless one is recorded already,
// and drops the unread input. A decoder calls it for a value its layout
// forbids.
func (r *Reader) Fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.bad, why)
	}
	r.buf = nil
}

// Done reports the first failure, or a failure if any input is unread.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Fail(fmt.Sprintf("%d trailing bytes", len(r.buf)))
	}
	return r.err
}

// Raw returns the next n bytes, capped at their length so an append
// cannot write into the input.
func (r *Reader) Raw(n int) []byte {
	if uint(n) > uint(len(r.buf)) {
		r.Fail("truncated")
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Rest returns the unread input, for a field that runs to the end of
// the frame.
func (r *Reader) Rest() []byte { return r.Raw(len(r.buf)) }

// Fixed copies the next len(dst) bytes into dst.
func (r *Reader) Fixed(dst []byte) { copy(dst, r.Raw(len(dst))) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a flag byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail(fmt.Sprintf("flag byte %d", b))
	}
	return b == 1
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := Uvarint(r.buf)
	if n == 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// U64 reads 8 big-endian bytes.
func (r *Reader) U64() uint64 {
	if b := r.Raw(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes reads a field behind its varint length.
func (r *Reader) Bytes() []byte { return r.Raw(r.Count(1)) }

// Count reads a varint item count and refuses one the unread input
// cannot hold at minLen bytes per item.
func (r *Reader) Count(minLen int) int { return r.fit(r.Uvarint(), minLen) }

// CountU64 is Count for a count written as 8 big-endian bytes.
func (r *Reader) CountU64(minLen int) int { return r.fit(r.U64(), minLen) }

func (r *Reader) fit(n uint64, minLen int) int {
	if n > uint64(len(r.buf)/minLen) {
		r.Fail(fmt.Sprintf("count %d overruns the frame", n))
		return 0
	}
	return int(n)
}
