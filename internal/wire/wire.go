// Package wire holds the byte-level pieces the binary codecs share: the
// varint length prefix every string and byte field rides behind, and a
// varint reader that accepts only minimal encodings, so an accepted
// frame re-encodes to exactly its bytes.
package wire

import (
	"encoding/binary"
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
