package reldb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"medshare/internal/wire"
)

// The binary row codec: Row.AppendCanonical — the bytes the Merkle leaf
// digest hashes — is the byte form of a row on the data channel;
// ReadRow is its inverse. On disk a row takes the compact form at the
// end of this file, which decodes to the same row.
// A changeset is three sequences of canonical rows behind 8-byte
// big-endian counts, so every encoding is fixed-width apart from string
// payloads and round-trips byte for byte. There is no
// normalisation:
// string bytes (valid UTF-8 or not), NaN payloads, negative zero and
// pre-1970 times come back exactly as encoded, so a decoded row has the
// same leaf digest as the row that was sent.
//
// Decoders read through a wire.Reader, so every count is checked against
// the remaining input before it sizes an allocation. They reject unknown
// kinds, bool bytes other than 0 or 1, and trailing bytes, and copy
// string payloads out of the input buffer.

// ErrCodec marks malformed binary row or changeset bytes.
var ErrCodec = errors.New("reldb: malformed canonical encoding")

func readValue(r *wire.Reader) Value {
	switch k := Kind(r.Byte()); k {
	case KindNull:
		return Null()
	case KindString:
		return S(string(r.Raw(r.CountU64(1))))
	case KindBool:
		return B(r.Bool())
	case KindInt:
		return I(int64(r.U64()))
	case KindFloat:
		return F(math.Float64frombits(r.U64()))
	case KindTime:
		return T(time.UnixMicro(int64(r.U64())))
	default:
		r.Fail(fmt.Sprintf("unknown kind %d", k))
		return Value{}
	}
}

// ReadRow reads one canonical row. Canonical rows are self-delimiting,
// so frames carry them back to back without a length prefix.
func ReadRow(r *wire.Reader) Row {
	row := make(Row, r.CountU64(1)) // the smallest value (NULL) is one byte
	for i := range row {
		row[i] = readValue(r)
	}
	return row
}

func readRows(r *wire.Reader) []Row {
	n := r.CountU64(8) // a row is at least its 8-byte count
	if n == 0 {
		return nil
	}
	out := make([]Row, n)
	for i := range out {
		out[i] = ReadRow(r)
	}
	return out
}

func appendRows(dst []byte, rows []Row) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = r.AppendCanonical(dst)
	}
	return dst
}

// AppendChangeset appends the binary changeset encoding to dst: the
// inserted, deleted and updated sections in that order, each a count
// followed by canonical rows (an update is its before and after row).
func AppendChangeset(dst []byte, cs Changeset) []byte {
	dst = appendRows(dst, cs.Inserted)
	dst = appendRows(dst, cs.Deleted)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(cs.Updated)))
	for _, u := range cs.Updated {
		dst = u.Before.AppendCanonical(dst)
		dst = u.After.AppendCanonical(dst)
	}
	return dst
}

// ReadChangeset reads a changeset as AppendChangeset writes it.
func ReadChangeset(r *wire.Reader) Changeset {
	cs := Changeset{Inserted: readRows(r), Deleted: readRows(r)}
	cs.Updated = make([]RowChange, r.CountU64(16))
	for i := range cs.Updated {
		cs.Updated[i] = RowChange{Before: ReadRow(r), After: ReadRow(r)}
	}
	return cs
}

// AppendSchema appends the schema as the store's table-root record
// carries it: its JSON behind an 8-byte big-endian length.
func AppendSchema(dst []byte, s Schema) []byte {
	schema, _ := json.Marshal(s) // plain strings, ints and bools: cannot fail
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(schema)))
	return append(dst, schema...)
}

// ReadSchema reads a schema as AppendSchema writes it.
func ReadSchema(r *wire.Reader) Schema { return ParseSchema(r, r.Raw(r.CountU64(1))) }

// ParseSchema decodes schema JSON, accepting only the bytes json.Marshal
// writes for the schema it decodes to; any other bytes fail r.
func ParseSchema(r *wire.Reader, raw []byte) Schema {
	var s Schema
	if err := json.Unmarshal(raw, &s); err != nil {
		r.Fail("schema: " + err.Error())
		return Schema{}
	}
	if again, _ := json.Marshal(s); !bytes.Equal(again, raw) {
		r.Fail("non-canonical schema")
		return Schema{}
	}
	return s
}

// The compact row form is the on-disk encoding of a row inside a store
// node record. The canonical form stays the one the leaf digest hashes;
// the compact form spends fewer bytes on framing: a varint column count,
// then per cell a kind byte and its payload — a varint length and the
// raw bytes for a string, a zig-zag varint for an int, 8 fixed bytes for
// a float (its bits) or a time (Unix microseconds), one byte for a bool,
// nothing for NULL. Every varint must be minimal, so a decoded row
// re-encodes to exactly its input, and it re-encodes canonically to the
// bytes, and hence the leaf digest, of the row that was written.

// AppendCompact appends the compact encoding of the row to dst.
func (r Row) AppendCompact(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindString:
			dst = wire.AppendBytes(dst, v.s)
		case KindInt:
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindBool:
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindTime:
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.t.UnixMicro()))
		}
	}
	return dst
}

func readCompactValue(r *wire.Reader) Value {
	switch k := Kind(r.Byte()); k {
	case KindNull:
		return Null()
	case KindString:
		return S(string(r.Bytes()))
	case KindInt:
		u := r.Uvarint()
		// Zig-zag: the low bit carries the sign.
		return I(int64(u>>1) ^ -int64(u&1))
	case KindBool:
		return B(r.Bool())
	case KindFloat:
		return F(math.Float64frombits(r.U64()))
	case KindTime:
		return T(time.UnixMicro(int64(r.U64())))
	default:
		r.Fail(fmt.Sprintf("unknown kind %d", k))
		return Value{}
	}
}

// ReadCompactRow reads one row in the form Row.AppendCompact writes.
func ReadCompactRow(r *wire.Reader) Row {
	row := make(Row, r.Count(1)) // the smallest value (NULL) is one byte
	for i := range row {
		row[i] = readCompactValue(r)
	}
	return row
}
