package reldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"medshare/internal/wire"
)

// oddValues are the values a lossy codec gets wrong: NaN payloads,
// negative zero, NUL bytes, invalid UTF-8, the int64 extremes, times
// before 1970 and long strings.
func oddValues() []Value {
	return []Value{
		Null(),
		S(""), S("a\x00b"), S("caf\xe9"), S("\xff\xfe\xfd"), S(strings.Repeat("x\x80", 40000)),
		I(0), I(math.MinInt64), I(math.MaxInt64), I(-1),
		F(math.Copysign(0, -1)), F(math.NaN()), F(math.Float64frombits(0x7ff0000000000bad)),
		F(math.Float64frombits(0xfff8000000000001)), F(math.Inf(-1)), F(math.SmallestNonzeroFloat64),
		B(false), B(true),
		T(time.UnixMicro(math.MinInt64)), T(time.UnixMicro(math.MaxInt64)),
		T(time.Date(1969, 12, 31, 23, 59, 59, 999999000, time.UTC)), T(time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)),
	}
}

func randCodecValue(rng *rand.Rand) Value {
	odd := oddValues()
	if rng.Intn(3) == 0 {
		return odd[rng.Intn(len(odd))]
	}
	switch Kind(rng.Intn(6)) {
	case KindString:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return S(string(b))
	case KindInt:
		return I(int64(rng.Uint64()))
	case KindFloat:
		return F(math.Float64frombits(rng.Uint64()))
	case KindBool:
		return B(rng.Intn(2) == 1)
	case KindTime:
		return T(time.UnixMicro(int64(rng.Uint64())))
	}
	return Null()
}

// TestRowCodecQuick: over random rows of every kind, decodeRow inverts
// AppendCanonical exactly — an Equal row with the same leaf digest and
// identical re-encoded bytes.
func TestRowCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 3000; i++ {
		r := make(Row, rng.Intn(9))
		for j := range r {
			r[j] = randCodecValue(rng)
		}
		enc := r.AppendCanonical(nil)
		back, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		if !back.Equal(r) || rowDigest(back) != rowDigest(r) {
			t.Fatalf("row %v came back as %v", r, back)
		}
		if !bytes.Equal(back.AppendCanonical(nil), enc) {
			t.Fatalf("row %v does not re-encode to its bytes", r)
		}
	}
}

// oddTable holds every odd value in a non-key column and a key spanning
// negative, zero and extreme ints.
func oddTable(t testing.TB) *Table {
	tbl := MustNewTable(Schema{
		Name: "odd",
		Columns: []Column{
			{Name: "k", Type: KindInt},
			{Name: "v", Type: KindString, Nullable: true},
			{Name: "f", Type: KindFloat, Nullable: true},
			{Name: "at", Type: KindTime, Nullable: true},
		},
		Key: []string{"k"},
	})
	for i, v := range oddValues() {
		r := Row{I(int64(i) - 5), Null(), Null(), Null()}
		switch v.Kind() {
		case KindString:
			r[1] = v
		case KindFloat:
			r[2] = v
		case KindTime:
			r[3] = v
		}
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl.MustInsert(Row{I(math.MinInt64), S("caf\xe9"), F(math.NaN()), Null()})
	tbl.MustInsert(Row{I(math.MaxInt64), S("\x00"), F(math.Copysign(0, -1)), Null()})
	return tbl
}

func TestTableCodecRoundTrip(t *testing.T) {
	tbl := oddTable(t)
	enc := AppendTable(nil, tbl)
	back, err := DecodeTable(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != tbl.Name() || !back.Equal(tbl) || back.RowsRoot() != tbl.RowsRoot() || back.Hash() != tbl.Hash() {
		t.Fatal("table changed across the binary codec")
	}
	if !bytes.Equal(AppendTable(nil, back), enc) {
		t.Fatal("decoded table does not re-encode to its bytes")
	}
	// The empty table round-trips too.
	empty := MustNewTable(tbl.Schema())
	if back, err := DecodeTable(AppendTable(nil, empty)); err != nil || back.Len() != 0 || !back.Schema().Equal(empty.Schema()) {
		t.Fatalf("empty table: %v", err)
	}
}

// TestCodecRejects: each malformed shape the decoders promise to refuse.
func TestCodecRejects(t *testing.T) {
	row := Row{I(1), S("x"), B(true)}
	enc := row.AppendCanonical(nil)
	boolAt := len(enc) - 1
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	for name, p := range map[string][]byte{
		"empty":          nil,
		"truncated":      enc[:len(enc)-1],
		"trailing byte":  append(append([]byte(nil), enc...), 0),
		"unknown kind":   append(u64(1), 6),
		"bool byte 2":    append(append([]byte(nil), enc[:boolAt]...), 2),
		"huge count":     u64(math.MaxUint64),
		"count > input":  append(u64(3), 0, 0),
		"string overrun": append(append(u64(1), byte(KindString)), u64(1<<40)...),
	} {
		if _, err := decodeRow(p); !errors.Is(err, ErrCodec) {
			t.Errorf("decodeRow(%s) = %v, want ErrCodec", name, err)
		}
	}
	r := wire.NewReader(append(append([]byte(nil), enc...), 7), ErrCodec)
	if ReadRow(&r); !bytes.Equal(r.Rest(), []byte{7}) || r.Done() != nil {
		t.Fatalf("ReadRow did not stop at the end of its row: %v", r.Done())
	}

	cs := AppendChangeset(nil, Changeset{Inserted: []Row{row}})
	if _, err := DecodeChangeset(append(cs, 0)); !errors.Is(err, ErrCodec) {
		t.Errorf("changeset with trailing byte: %v", err)
	}
	if _, err := DecodeChangeset(append(u64(1<<60), make([]byte, 16)...)); !errors.Is(err, ErrCodec) {
		t.Errorf("changeset with huge count: %v", err)
	}

	// Tables: rows out of key order and duplicate keys are refused, as
	// is a schema in any but its canonical JSON bytes, or an invalid one.
	tbl := newPatients(t, alice(), bob())
	good := AppendTable(nil, tbl)
	rowsAt := len(good) - len(alice().AppendCanonical(nil)) - len(bob().AppendCanonical(nil))
	swapped := append(append(append([]byte(nil), good[:rowsAt]...), bob().AppendCanonical(nil)...), alice().AppendCanonical(nil)...)
	if _, err := DecodeTable(swapped); !errors.Is(err, ErrCodec) {
		t.Errorf("unsorted table: %v", err)
	}
	dup := append(append(append([]byte(nil), good[:rowsAt]...), alice().AppendCanonical(nil)...), alice().AppendCanonical(nil)...)
	if _, err := DecodeTable(dup); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate-key table: %v", err)
	}
	withSchema := func(schema string) []byte {
		return append(append(u64(uint64(len(schema))), schema...), u64(0)...)
	}
	for name, p := range map[string][]byte{
		"spaced schema": withSchema(` {"name":"x","columns":[{"name":"k","type":2}],"key":["k"]}`),
		"schema json":   withSchema(`{"name":`),
		"trailing":      append(append([]byte(nil), good...), 0),
	} {
		if _, err := DecodeTable(p); !errors.Is(err, ErrCodec) {
			t.Errorf("table with %s: %v", name, err)
		}
	}
	if _, err := DecodeTable(withSchema(`{"name":"x","columns":[],"key":[]}`)); !errors.Is(err, ErrSchemaInvalid) {
		t.Errorf("table with invalid schema: %v", err)
	}
	if _, err := DecodeTable(withSchema(`{"name":"x","columns":[{"name":"k","type":2}],"key":["k"]}`)); err != nil {
		t.Errorf("empty table with canonical schema: %v", err)
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

// FuzzRowCodec drives the row, changeset and table decoders with
// arbitrary bytes: none may panic, none may allocate more than a fixed
// multiple of the input length (every count is checked against the
// remaining input first), and any input a decoder accepts must
// re-encode to exactly the same bytes — the canonical form is
// fixed-width, so nothing is normalised on the way through.
func FuzzRowCodec(f *testing.F) {
	row := Row{I(-7), S("caf\xe9"), F(math.NaN()), B(true), T(time.UnixMicro(-1)), Null()}
	f.Add(row.AppendCanonical(nil))
	f.Add(AppendChangeset(nil, Changeset{
		Inserted: []Row{row},
		Deleted:  []Row{{S("\x00")}},
		Updated:  []RowChange{{Before: Row{I(1), S("a")}, After: Row{I(1), S("b")}}},
	}))
	f.Add(AppendTable(nil, oddTable(f)))
	f.Add(AppendTable(nil, MustNewTable(patientSchema())))
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint64(nil, math.MaxUint64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			r     Row
			cs    Changeset
			tbl   *Table
			errs  [3]error
			limit = 256*uint64(len(data)) + 1<<20
		)
		if n := allocBytes(func() {
			r, errs[0] = decodeRow(data)
			cs, errs[1] = DecodeChangeset(data)
			tbl, errs[2] = DecodeTable(data)
		}); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if errs[0] == nil {
			if !bytes.Equal(r.AppendCanonical(nil), data) {
				t.Fatal("accepted row does not re-encode to its input")
			}
			if back, err := decodeRow(data); err != nil || !back.Equal(r) || rowDigest(back) != rowDigest(r) {
				t.Fatal("row decoding is not deterministic")
			}
		}
		if errs[1] == nil && !bytes.Equal(AppendChangeset(nil, cs), data) {
			t.Fatal("accepted changeset does not re-encode to its input")
		}
		if errs[2] == nil && !bytes.Equal(AppendTable(nil, tbl), data) {
			t.Fatal("accepted table does not re-encode to its input")
		}
	})
}

// TestCompactRowQuick: over random rows of every kind, DecodeCompactRow
// inverts AppendCompact exactly, and the decoded row has the canonical
// bytes and leaf digest of the row that was written.
func TestCompactRowQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 3000; i++ {
		r := make(Row, rng.Intn(9))
		for j := range r {
			r[j] = randCodecValue(rng)
		}
		enc := r.AppendCompact(nil)
		back, err := DecodeCompactRow(enc)
		if err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		if !bytes.Equal(back.AppendCanonical(nil), r.AppendCanonical(nil)) || rowDigest(back) != rowDigest(r) {
			t.Fatalf("row %v came back as %v", r, back)
		}
		if !bytes.Equal(back.AppendCompact(nil), enc) {
			t.Fatalf("row %v does not re-encode to its bytes", r)
		}
	}
}

// TestCompactRowRejects: truncations, trailing bytes, unknown kinds,
// bool bytes other than 0 or 1 and non-minimal varints are refused.
func TestCompactRowRejects(t *testing.T) {
	good := Row{I(-3), S("ab"), B(true)}.AppendCompact(nil)
	for i := 0; i < len(good); i++ {
		if _, err := DecodeCompactRow(good[:i]); !errors.Is(err, ErrCodec) {
			t.Errorf("truncated at %d: %v", i, err)
		}
	}
	for name, p := range map[string][]byte{
		"trailing":           append(append([]byte(nil), good...), 0),
		"unknown kind":       {1, 9},
		"bool byte 2":        {1, byte(KindBool), 2},
		"non-minimal count":  {0x81, 0x00, byte(KindNull)},
		"non-minimal length": {1, byte(KindString), 0x80, 0x00},
		"non-minimal int":    {1, byte(KindInt), 0x80, 0x00},
		"huge count":         {0xff, 0xff, 0xff, 0xff, 0x0f},
		"string past end":    {1, byte(KindString), 5, 'a'},
	} {
		if _, err := DecodeCompactRow(p); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzCompactRow drives the compact row decoder with arbitrary bytes: it
// may not panic or allocate more than a fixed multiple of its input, an
// accepted row must re-encode to exactly its input, and the row must
// have the same canonical bytes and leaf digest as the row its
// canonical bytes decode to. A canonical row that decodes goes the
// other way too: compact and back must give its canonical bytes.
func FuzzCompactRow(f *testing.F) {
	row := Row{I(-7), S("caf\xe9"), F(math.NaN()), B(true), T(time.UnixMicro(-1)), Null()}
	f.Add(row.AppendCompact(nil))
	f.Add(row.AppendCanonical(nil))
	f.Add(Row{I(math.MinInt64), I(math.MaxInt64), S("")}.AppendCompact(nil))
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			r     Row
			err   error
			limit = 256*uint64(len(data)) + 1<<20
		)
		if n := allocBytes(func() { r, err = DecodeCompactRow(data) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if !bytes.Equal(r.AppendCompact(nil), data) {
				t.Fatal("accepted compact row does not re-encode to its input")
			}
			canon := r.AppendCanonical(nil)
			back, err := decodeRow(canon)
			if err != nil || !bytes.Equal(back.AppendCanonical(nil), canon) || rowDigest(back) != rowDigest(r) {
				t.Fatal("compact row and its canonical bytes disagree")
			}
		}
		if c, err := decodeRow(data); err == nil {
			back, err := DecodeCompactRow(c.AppendCompact(nil))
			if err != nil || !bytes.Equal(back.AppendCanonical(nil), data) || rowDigest(back) != rowDigest(c) {
				t.Fatal("canonical row does not survive the compact form")
			}
		}
	})
}

// decodeRow is the inverse of Row.AppendCanonical: p must hold exactly
// one encoded row.
func decodeRow(p []byte) (Row, error) {
	r := wire.NewReader(p, ErrCodec)
	row := ReadRow(&r)
	return row, r.Done()
}

// DecodeCompactRow is the inverse of Row.AppendCompact: p must hold
// exactly one encoded row.
func DecodeCompactRow(p []byte) (Row, error) {
	r := wire.NewReader(p, ErrCodec)
	row := ReadCompactRow(&r)
	return row, r.Done()
}
