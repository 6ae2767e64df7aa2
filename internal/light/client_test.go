package light

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/contract/sharereg"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
)

// fixture is a miniature full node a fake source serves from: a header
// chain, a world state holding one share's metadata, and the share's
// view table. Tests mutate it (advance a version) or interpose tamper
// hooks on the source.
type fixture struct {
	network string
	headers []chain.Header // index == height
	state   *statedb.Store
	view    *reldb.Table
	shareID string
	seq     uint64
}

func testSchema() reldb.Schema {
	return reldb.Schema{
		Name: "vitals",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "val", Type: reldb.KindString},
		},
		Key: []string{"id"},
	}
}

func newFixture(t *testing.T, rows int) *fixture {
	t.Helper()
	f := &fixture{network: "lighttest", shareID: "S1", state: statedb.NewStore()}
	g := chain.Genesis(f.network)
	f.headers = []chain.Header{g.Header}
	view, err := reldb.NewTable(testSchema())
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	f.view = view
	for i := 0; i < rows; i++ {
		if err := view.Insert(reldb.Row{reldb.I(int64(i)), reldb.S("v0")}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	f.commitVersion(t, 1)
	return f
}

// commitVersion records the view's current content as the share's next
// finalized on-chain version and extends the header chain with a block
// committing to the resulting world state.
func (f *fixture) commitVersion(t *testing.T, seq uint64) {
	t.Helper()
	f.seq = seq
	h := f.view.Hash()
	meta := sharereg.Meta{ID: f.shareID, Seq: seq, LastPayloadHash: hex.EncodeToString(h[:])}
	raw, err := json.Marshal(&meta)
	if err != nil {
		t.Fatalf("marshal meta: %v", err)
	}
	height := uint64(len(f.headers))
	f.state.Commit(statedb.WriteSet{sharereg.MetaKey(f.shareID): raw}, statedb.Version{Height: height})
	prev := f.headers[height-1]
	f.headers = append(f.headers, chain.Header{
		Height:    height,
		PrevHash:  prev.Hash(),
		StateRoot: f.state.Root(),
	})
}

// fakeSource serves the fixture, with optional interposition hooks.
type fakeSource struct {
	f *fixture
	// onShareHead / onRow mutate the response before it is returned.
	onShareHead func(*ShareHead)
	onRow       func(*RowFetch)
}

func (s *fakeSource) Headers(_ context.Context, from uint64) ([]chain.Header, int, error) {
	if from >= uint64(len(s.f.headers)) {
		return nil, 0, nil
	}
	hs := append([]chain.Header(nil), s.f.headers[from:]...)
	return hs, len(chain.EncodeHeaders(hs)), nil
}

func (s *fakeSource) ShareHead(_ context.Context, shareID string) (ShareHead, int, error) {
	value, ver, proof, root, err := s.f.state.ProveKey(sharereg.MetaKey(shareID))
	if err != nil {
		return ShareHead{}, 0, err
	}
	height := uint64(0)
	for i := len(s.f.headers) - 1; i >= 0; i-- {
		if s.f.headers[i].StateRoot == root {
			height = uint64(i)
			break
		}
	}
	sh := ShareHead{Height: height, Meta: value, Version: ver, Proof: proof}
	if s.onShareHead != nil {
		s.onShareHead(&sh)
	}
	return sh, len(EncodeShareHead(&sh)), nil
}

func (s *fakeSource) Row(_ context.Context, shareID string, key reldb.Row) (RowFetch, int, error) {
	row, proof, err := s.f.view.ProveRow(key)
	if err != nil {
		return RowFetch{}, 0, err
	}
	rf := RowFetch{
		Seq:       s.f.seq,
		SchemaSum: s.f.view.SchemaSum(),
		Rows:      s.f.view.Len(),
		Root:      s.f.view.RowsRoot(),
		Schema:    s.f.view.Schema(),
		Row:       row,
		Proof:     proof,
	}
	if s.onRow != nil {
		s.onRow(&rf)
	}
	return rf, len(EncodeRowFetch(&rf)), nil
}

func newTestClient(t *testing.T, f *fixture, src Source) *Client {
	t.Helper()
	if src == nil {
		src = &fakeSource{f: f}
	}
	c, err := New(Config{Network: f.network, Source: src})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Subscribe(f.shareID)
	if _, err := c.SyncHeaders(context.Background()); err != nil {
		t.Fatalf("SyncHeaders: %v", err)
	}
	return c
}

func TestReadVerifiedRow(t *testing.T) {
	f := newFixture(t, 100)
	c := newTestClient(t, f, nil)
	row, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(7)})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := row[1].String(); got != "v0" {
		t.Fatalf("row value = %q, want v0", got)
	}
	// Second read of the same key must come from the verified cache.
	if _, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(7)}); err != nil {
		t.Fatalf("cached Read: %v", err)
	}
	st := c.Stats()
	if st.CacheHits != 1 || st.RowsVerified != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 verified", st)
	}
	if st.VerifyFailures != 0 {
		t.Fatalf("unexpected verify failures: %+v", st)
	}
}

func TestReadUnsubscribedShare(t *testing.T) {
	f := newFixture(t, 4)
	c := newTestClient(t, f, nil)
	if _, err := c.Read(context.Background(), "other", reldb.Row{reldb.I(0)}); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("err = %v, want ErrNotSubscribed", err)
	}
}

func TestTamperedRowProofRejected(t *testing.T) {
	f := newFixture(t, 50)
	src := &fakeSource{f: f}
	src.onRow = func(rf *RowFetch) {
		if len(rf.Proof.Steps) > 0 {
			rf.Proof.Steps[0].Other[0] ^= 0xff
		} else {
			rf.Proof.Left[0] ^= 0xff
		}
	}
	c := newTestClient(t, f, src)
	_, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
	if st := c.Stats(); st.VerifyFailures == 0 {
		t.Fatalf("verify failure not counted: %+v", st)
	}
}

func TestTamperedRowValueRejected(t *testing.T) {
	f := newFixture(t, 50)
	src := &fakeSource{f: f}
	src.onRow = func(rf *RowFetch) {
		rf.Row = append(reldb.Row(nil), rf.Row...)
		rf.Row[1] = reldb.S("forged")
	}
	c := newTestClient(t, f, src)
	_, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestRowSubstitutionRejected(t *testing.T) {
	// A proof for a *different* row of the same table is genuine against
	// the root; the key-binding check must still reject it.
	f := newFixture(t, 50)
	src := &fakeSource{f: f}
	src.onRow = func(rf *RowFetch) {
		row, proof, err := f.view.ProveRow(reldb.Row{reldb.I(9)})
		if err != nil {
			panic(err)
		}
		rf.Row, rf.Proof = row, proof
	}
	c := newTestClient(t, f, src)
	_, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestForgedSchemaRejected(t *testing.T) {
	// Swapping the key column in the served schema would let a server
	// answer key K with a row for another key; the schema must hash to
	// the committed SchemaSum.
	f := newFixture(t, 20)
	src := &fakeSource{f: f}
	src.onRow = func(rf *RowFetch) {
		rf.Schema = rf.Schema.Clone()
		rf.Schema.Key = []string{"val"}
	}
	c := newTestClient(t, f, src)
	_, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestWrongRootHeaderRejected(t *testing.T) {
	// A share head anchored at a header whose StateRoot does not commit
	// to the proof's root must be rejected.
	f := newFixture(t, 20)
	src := &fakeSource{f: f}
	src.onShareHead = func(sh *ShareHead) { sh.Height = 0 } // genesis: wrong root
	c := newTestClient(t, f, src)
	_, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

func TestStaleSeqRowRejected(t *testing.T) {
	// A server that persistently serves rows from an older version than
	// the proven head must exhaust the retry budget and fail, never
	// return the stale row.
	f := newFixture(t, 20)
	staleRoot := f.view.RowsRoot()
	staleRows := f.view.Len()
	staleRow, staleProof, err := f.view.ProveRow(reldb.Row{reldb.I(3)})
	if err != nil {
		t.Fatalf("ProveRow: %v", err)
	}
	// Advance the share to seq 2 with changed content.
	if err := f.view.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"val": reldb.S("v1")}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	f.commitVersion(t, 2)

	src := &fakeSource{f: f}
	src.onRow = func(rf *RowFetch) {
		rf.Seq, rf.Rows, rf.Root = 1, staleRows, staleRoot
		rf.Row, rf.Proof = staleRow, staleProof
	}
	c := newTestClient(t, f, src)
	_, err = c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
	if st := c.Stats(); st.StaleRetries == 0 {
		t.Fatalf("stale retries not counted: %+v", st)
	}
}

// TestCachedRowServedAtProvenSeq pins the freshness contract: a cached
// row is served at the seq of the client's last head proof after the
// share moves on, a read of an uncached key re-proves the head and
// drops the old version's rows, and a fresh client reads the new
// version straight away.
func TestCachedRowServedAtProvenSeq(t *testing.T) {
	f := newFixture(t, 20)
	c := newTestClient(t, f, nil)
	ctx := context.Background()
	key := reldb.Row{reldb.I(5)}
	if _, err := c.Read(ctx, f.shareID, key); err != nil {
		t.Fatalf("Read v1: %v", err)
	}

	if err := f.view.Update(key, map[string]reldb.Value{"val": reldb.S("v1")}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	f.commitVersion(t, 2)

	row, err := c.Read(ctx, f.shareID, key)
	if err != nil {
		t.Fatalf("cached Read: %v", err)
	}
	if got := row[1].String(); got != "v0" {
		t.Fatalf("cached read = %q, want the row verified at seq 1", got)
	}

	fresh := newTestClient(t, f, nil)
	if row, err = fresh.Read(ctx, f.shareID, key); err != nil {
		t.Fatalf("fresh Read: %v", err)
	}
	if got := row[1].String(); got != "v1" {
		t.Fatalf("fresh client read = %q, want v1", got)
	}

	// An uncached key fetches at seq 2, which no longer hashes to the
	// proven head: the client re-proves it and the seq-1 row goes.
	if _, err := c.Read(ctx, f.shareID, reldb.Row{reldb.I(6)}); err != nil {
		t.Fatalf("Read uncached key: %v", err)
	}
	if row, err = c.Read(ctx, f.shareID, key); err != nil {
		t.Fatalf("Read after head advance: %v", err)
	}
	if got := row[1].String(); got != "v1" {
		t.Fatalf("read after the head moved = %q, want v1", got)
	}
	if st := c.Stats(); st.VerifyFailures != 0 || st.StaleRetries == 0 {
		t.Fatalf("stats = %+v, want one stale retry and no failures", st)
	}
}

func TestStateBytesIndependentOfViewSize(t *testing.T) {
	read := func(rows int) int {
		f := newFixture(t, rows)
		c := newTestClient(t, f, nil)
		if _, err := c.Read(context.Background(), f.shareID, reldb.Row{reldb.I(1)}); err != nil {
			t.Fatalf("Read: %v", err)
		}
		return c.StateBytes()
	}
	small, large := read(10), read(10000)
	if large > small*3/2 {
		t.Fatalf("light state grew with view size: %d rows -> %dB, %d rows -> %dB", 10, small, 10000, large)
	}
}

func TestHeaderChainRejectsForgedHeader(t *testing.T) {
	f := newFixture(t, 4)
	hc := chain.NewHeaderChain(f.network, nil)
	if err := hc.Append(f.headers[1]); err != nil {
		t.Fatalf("Append genuine: %v", err)
	}
	forged := f.headers[1]
	forged.Height = 2
	forged.StateRoot[0] ^= 0xff // PrevHash still points at header 0
	if err := hc.Append(forged); err == nil {
		t.Fatal("forged header accepted")
	}
}

func TestWireRoundTrips(t *testing.T) {
	f := newFixture(t, 10)
	src := &fakeSource{f: f}

	sh, _, err := src.ShareHead(context.Background(), f.shareID)
	if err != nil {
		t.Fatalf("ShareHead: %v", err)
	}
	gotSH, err := DecodeShareHead(EncodeShareHead(&sh))
	if err != nil {
		t.Fatalf("share head decode: %v", err)
	}
	if gotSH.Height != sh.Height || string(gotSH.Meta) != string(sh.Meta) ||
		gotSH.Version != sh.Version || len(gotSH.Proof.Steps) != len(sh.Proof.Steps) {
		t.Fatalf("share head round trip mismatch")
	}

	// A Latin-1 string must cross byte for byte.
	if err := f.view.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"val": reldb.S("caf\xe9")}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	rf, _, err := src.Row(context.Background(), f.shareID, reldb.Row{reldb.I(3)})
	if err != nil {
		t.Fatalf("Row: %v", err)
	}
	rfRaw := EncodeRowFetch(&rf)
	gotRF, err := DecodeRowFetch(rfRaw)
	if err != nil {
		t.Fatalf("row fetch decode: %v", err)
	}
	if gotRF.Seq != rf.Seq || gotRF.Root != rf.Root || gotRF.SchemaSum != rf.SchemaSum ||
		gotRF.Rows != rf.Rows || string(gotRF.Row.AppendCanonical(nil)) != string(rf.Row.AppendCanonical(nil)) {
		t.Fatalf("row fetch round trip mismatch")
	}
	// The decoded fetch must verify exactly like the original.
	var buf [72]byte
	copy(buf[:32], gotRF.SchemaSum[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(gotRF.Rows))
	copy(buf[40:], gotRF.Root[:])
	if err := verifyFetch(&gotRF, func(reldb.Schema) (reldb.Row, error) { return reldb.Row{reldb.I(3)}, nil }, sha256.Sum256(buf[:])); err != nil {
		t.Fatalf("decoded fetch fails verification: %v", err)
	}

	// Trailing garbage must be rejected on both frames.
	if _, err := DecodeShareHead(append(EncodeShareHead(&sh), 0)); err == nil {
		t.Fatal("share head with a trailing byte accepted")
	}
	if _, err := DecodeRowFetch(append(rfRaw, 0)); err == nil {
		t.Fatal("row fetch with a trailing byte accepted")
	}
}

// TestWireRejectsOverlongVarint: a length or count written in more
// varint bytes than its value needs is rejected, so an accepted frame
// re-encodes to exactly its bytes.
func TestWireRejectsOverlongVarint(t *testing.T) {
	f := newFixture(t, 4)
	sh, _, err := (&fakeSource{f: f}).ShareHead(context.Background(), f.shareID)
	if err != nil {
		t.Fatalf("ShareHead: %v", err)
	}
	raw := EncodeShareHead(&sh)
	if _, err := DecodeShareHead(raw); err != nil {
		t.Fatalf("genuine frame: %v", err)
	}
	// raw[1] is the one-byte varint height; 0x80|v, 0x00 is the same
	// value in two bytes.
	if raw[1] >= 0x80 {
		t.Fatalf("height %d does not fit one varint byte", sh.Height)
	}
	overlong := append([]byte{raw[0], raw[1] | 0x80, 0}, raw[2:]...)
	if _, err := DecodeShareHead(overlong); !errors.Is(err, ErrWire) {
		t.Fatalf("overlong varint: err = %v, want ErrWire", err)
	}
}
