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
// DecodeRow is its inverse. On disk a row takes the compact form at the
// end of this file, which decodes to the same row.
// Changesets and tables (after their schema) are sequences of canonical
// rows behind 8-byte big-endian counts, so every encoding is fixed-width
// apart from string payloads and round-trips byte for byte. There is no
// normalisation:
// string bytes (valid UTF-8 or not), NaN payloads, negative zero and
// pre-1970 times come back exactly as encoded, so a decoded row has the
// same leaf digest as the row that was sent.
//
// Decoders are bounds-checked against the remaining input before every
// allocation, reject unknown kinds, bool bytes other than 0 or 1, and
// trailing bytes, and copy string payloads out of the input buffer.

// ErrCodec marks malformed binary row, changeset or table bytes.
var ErrCodec = errors.New("reldb: malformed canonical encoding")

// canonReader walks canonical bytes with bounds checking.
type canonReader struct{ buf []byte }

func (r *canonReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, ErrCodec
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

// count reads an item count and rejects one the remaining input cannot
// hold at minLen bytes per item — the bound every allocation sized by a
// count rests on.
func (r *canonReader) count(minLen int) (int, error) {
	n, err := r.u64()
	if err != nil || n > uint64(len(r.buf)/minLen) {
		return 0, ErrCodec
	}
	return int(n), nil
}

func (r *canonReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

func (r *canonReader) value() (Value, error) {
	if len(r.buf) == 0 {
		return Value{}, ErrCodec
	}
	k := Kind(r.buf[0])
	r.buf = r.buf[1:]
	switch k {
	case KindNull:
		return Null(), nil
	case KindString:
		s, err := r.str()
		return S(s), err
	case KindBool:
		if len(r.buf) == 0 || r.buf[0] > 1 {
			return Value{}, ErrCodec
		}
		b := r.buf[0] == 1
		r.buf = r.buf[1:]
		return B(b), nil
	case KindInt, KindFloat, KindTime:
		u, err := r.u64()
		switch k {
		case KindInt:
			return I(int64(u)), err
		case KindFloat:
			return F(math.Float64frombits(u)), err
		}
		return T(time.UnixMicro(int64(u))), err
	}
	return Value{}, fmt.Errorf("%w: unknown kind %d", ErrCodec, k)
}

func (r *canonReader) row() (Row, error) {
	n, err := r.count(1) // the smallest value (NULL) is one byte
	if err != nil {
		return nil, err
	}
	row := make(Row, n)
	for i := range row {
		if row[i], err = r.value(); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func (r *canonReader) rows() ([]Row, error) {
	n, err := r.count(8) // a row is at least its 8-byte count
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]Row, n)
	for i := range out {
		if out[i], err = r.row(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *canonReader) done() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.buf))
	}
	return nil
}

// CutRow decodes the canonical row at the front of p and returns it with
// the bytes that follow it. Canonical rows are self-delimiting, so
// frames carry them back to back without a length prefix.
func CutRow(p []byte) (Row, []byte, error) {
	r := canonReader{buf: p}
	row, err := r.row()
	if err != nil {
		return nil, p, err
	}
	return row, r.buf, nil
}

// DecodeRow is the inverse of Row.AppendCanonical: p must hold exactly
// one encoded row.
func DecodeRow(p []byte) (Row, error) {
	r := canonReader{buf: p}
	row, err := r.row()
	if err == nil {
		err = r.done()
	}
	return row, err
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

// DecodeChangeset parses bytes produced by AppendChangeset.
func DecodeChangeset(p []byte) (Changeset, error) {
	r := canonReader{buf: p}
	var cs Changeset
	var err error
	if cs.Inserted, err = r.rows(); err != nil {
		return Changeset{}, err
	}
	if cs.Deleted, err = r.rows(); err != nil {
		return Changeset{}, err
	}
	n, err := r.count(16)
	if err != nil {
		return Changeset{}, err
	}
	cs.Updated = make([]RowChange, n)
	for i := range cs.Updated {
		u := &cs.Updated[i]
		if u.Before, err = r.row(); err != nil {
			return Changeset{}, err
		}
		if u.After, err = r.row(); err != nil {
			return Changeset{}, err
		}
	}
	return cs, r.done()
}

// AppendTable appends the binary table encoding to dst: the schema as
// length-prefixed JSON (it is not a row, and it is read once per table),
// then the row count and the canonical rows in canonical key order.
func AppendTable(dst []byte, t *Table) []byte {
	dst = AppendSchema(dst, t.schema)
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.rows.Len()))
	t.rows.Ascend(func(_ string, e *rowEntry) bool {
		dst = e.row.AppendCanonical(dst)
		return true
	})
	return dst
}

// AppendSchema appends the schema as AppendTable writes it: its JSON
// behind an 8-byte big-endian length.
func AppendSchema(dst []byte, s Schema) []byte {
	schema, _ := json.Marshal(s) // plain strings, ints and bools: cannot fail
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(schema)))
	return append(dst, schema...)
}

// CutSchema decodes the schema AppendSchema wrote at the front of p and
// returns it with the bytes that follow it.
func CutSchema(p []byte) (Schema, []byte, error) {
	r := canonReader{buf: p}
	s, err := r.schema()
	return s, r.buf, err
}

// schema reads a length-prefixed JSON schema, accepting only the bytes
// AppendSchema writes for it.
func (r *canonReader) schema() (Schema, error) {
	var s Schema
	n, err := r.count(1)
	if err != nil {
		return s, err
	}
	raw := r.buf[:n]
	r.buf = r.buf[n:]
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%w: schema: %v", ErrCodec, err)
	}
	if again, _ := json.Marshal(s); !bytes.Equal(again, raw) {
		return s, fmt.Errorf("%w: non-canonical schema", ErrCodec)
	}
	return s, nil
}

// DecodeTable parses bytes produced by AppendTable. It reads the schema
// once and rebuilds the rows through a TableBuilder; rows must arrive in
// strictly ascending key order, so an unsorted or duplicated key is
// rejected rather than silently reordered. The table carries unkeyed
// priorities, like every TableBuilder result.
func DecodeTable(p []byte) (*Table, error) {
	r := canonReader{buf: p}
	s, err := r.schema()
	if err != nil {
		return nil, err
	}
	b, err := NewTableBuilder(s)
	if err != nil {
		return nil, err
	}
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	var prev []byte
	for i := 0; i < n; i++ {
		row, err := r.row()
		if err != nil {
			return nil, err
		}
		prev = append(prev[:0], b.keyBuf...)
		if err := b.Append(row); err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(b.keyBuf, prev) <= 0 {
			return nil, fmt.Errorf("%w: table %s rows out of key order", ErrCodec, s.Name)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b.Table(), nil
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

// uvarint reads a minimal unsigned varint.
func (r *canonReader) uvarint() (uint64, error) {
	v, n := wire.Uvarint(r.buf)
	if n == 0 {
		return 0, ErrCodec
	}
	r.buf = r.buf[n:]
	return v, nil
}

// compactCount reads a varint item count and rejects one the remaining
// input cannot hold at one byte per item.
func (r *canonReader) compactCount() (int, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.buf)) {
		return 0, ErrCodec
	}
	return int(n), nil
}

func (r *canonReader) compactValue() (Value, error) {
	if len(r.buf) == 0 {
		return Value{}, ErrCodec
	}
	k := Kind(r.buf[0])
	r.buf = r.buf[1:]
	switch k {
	case KindNull:
		return Null(), nil
	case KindString:
		n, err := r.compactCount()
		if err != nil {
			return Value{}, err
		}
		s := string(r.buf[:n])
		r.buf = r.buf[n:]
		return S(s), nil
	case KindInt:
		u, err := r.uvarint()
		// Zig-zag: the low bit carries the sign.
		return I(int64(u>>1) ^ -int64(u&1)), err
	case KindBool:
		if len(r.buf) == 0 || r.buf[0] > 1 {
			return Value{}, ErrCodec
		}
		b := r.buf[0] == 1
		r.buf = r.buf[1:]
		return B(b), nil
	case KindFloat, KindTime:
		u, err := r.u64()
		if k == KindFloat {
			return F(math.Float64frombits(u)), err
		}
		return T(time.UnixMicro(int64(u))), err
	}
	return Value{}, fmt.Errorf("%w: unknown kind %d", ErrCodec, k)
}

// DecodeCompactRow is the inverse of Row.AppendCompact: p must hold
// exactly one encoded row.
func DecodeCompactRow(p []byte) (Row, error) {
	r := canonReader{buf: p}
	n, err := r.compactCount() // the smallest value (NULL) is one byte
	if err != nil {
		return nil, err
	}
	row := make(Row, n)
	for i := range row {
		if row[i], err = r.compactValue(); err != nil {
			return nil, err
		}
	}
	return row, r.done()
}
