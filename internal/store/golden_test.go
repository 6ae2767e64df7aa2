package store

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
)

// The golden data dir: a small store in the current format, committed
// under testdata/ so every later build must still open it, or refuse it
// by name after a format bump (TestStoreRefusesOldFormat), beside a
// migration where one is possible.
// TestGoldenDataDir opens it and checks every item; TestWriteGolden
// regenerates it and runs only when asked:
//
//	go test ./internal/store -run '^TestWriteGolden$' -write-golden

var writeGolden = flag.Bool("write-golden", false, "regenerate the golden data dir under testdata/")

var goldenDir = filepath.Join("testdata", fmt.Sprintf("golden-v%d", FormatVersion))

// goldenContent is what the golden data dir holds: a source table and a
// keyed share view after a few updates, a chain of signed blocks, a
// share meta, and a state checkpoint under a clean-shutdown marker.
type goldenContent struct {
	tables []*reldb.Table
	blocks []*chain.Block
	share  ShareMeta
	state  StateCheckpoint
}

func buildGolden(t *testing.T) goldenContent {
	t.Helper()
	var g goldenContent
	src := testTable(t, "fig1", 24)
	view := testTable(t, "fig1_view", 12).Reseeded([]byte("golden-share-secret"))
	for i := 0; i < 6; i++ {
		if err := src.Update(reldb.Row{reldb.I(int64(i))}, map[string]reldb.Value{"dose": reldb.S(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := view.Update(reldb.Row{reldb.I(int64(i))}, map[string]reldb.Value{"name": reldb.S("caf\xe9")}); err != nil {
			t.Fatal(err)
		}
	}
	g.tables = []*reldb.Table{src, view}

	id := identity.FromSeed("golden", "store/golden")
	parent := chain.Genesis("golden")
	g.blocks = []*chain.Block{parent}
	for h := uint64(1); h <= 3; h++ {
		tx := &chain.Tx{
			Contract: "sharereg", Fn: "request_update", ShareID: "share-1",
			Args: [][]byte{[]byte(fmt.Sprintf(`{"seq":%d}`, h))}, Nonce: h, TimestampMicro: int64(h),
		}
		tx.Sign(id)
		b := &chain.Block{Header: chain.Header{
			Height: h, PrevHash: parent.Hash(), TimestampMicro: int64(h) * 1000,
			Proposer: id.Address(), ProposerPub: id.PublicKey(),
		}, Txs: []*chain.Tx{tx}}
		b.Header.TxRoot = b.ComputeTxRoot()
		sh := b.Header.SigHash()
		b.Header.Sig = id.Sign(sh[:])
		g.blocks = append(g.blocks, b)
		parent = b
	}
	g.share = ShareMeta{ID: "share-1", Seq: 3, Source: "fig1", View: "fig1_view", PrioSeed: []byte("golden-share-secret")}

	sum := statedb.NewStore()
	sum.Commit(statedb.WriteSet{"share/share-1": []byte(`{"seq":3}`)}, statedb.Version{Height: 3})
	g.state = StateCheckpoint{Height: 3, Head: parent.Hash(), Root: sum.Root(), Entries: sum.Export()}
	return g
}

// writeGoldenStore commits the content in the order a node would: one
// group per block with the tables as they stood, then the clean stop.
// A small segment size makes it rotate, so a sealed segment and its
// index are part of the golden too.
func writeGoldenStore(t *testing.T, fs FS, g goldenContent) {
	t.Helper()
	s, err := Open(Options{FS: fs, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, b := range g.blocks {
		err := s.Commit(func(bt *Batch) error {
			if err := bt.PutBlock(b); err != nil {
				return err
			}
			if i == len(g.blocks)-1 {
				for _, tab := range g.tables {
					if err := bt.PutTable(tab); err != nil {
						return err
					}
				}
				return bt.PutShareMeta(g.share)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(func(bt *Batch) error {
		bt.MarkClean()
		return bt.PutState(g.state)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteGolden regenerates the golden data dir (skipped by default).
func TestWriteGolden(t *testing.T) {
	if !*writeGolden {
		t.Skip("regenerates testdata; run with -write-golden")
	}
	fs := NewMemFS()
	writeGoldenStore(t, fs, buildGolden(t))
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size()
		data := make([]byte, sz)
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDataDir reads every file of a committed data dir by name.
func readDataDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestGoldenDataDir opens the committed golden data dir with this build
// and checks every item in it: both tables verified against their
// roots, every block by hash and signature, the share meta, the state
// checkpoint and the clean-shutdown marker. A MemFS copy is opened, so
// the committed files are never written.
func TestGoldenDataDir(t *testing.T) {
	fs := NewMemFS()
	for name, data := range readDataDir(t, goldenDir) {
		f, _ := fs.OpenAppend(name)
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatalf("opening the golden data dir: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Segments < 2 || st.TornTail || st.DegradedSegments != 0 || !st.CleanShutdown {
		t.Fatalf("golden data dir stats: %+v", st)
	}
	if st.ScannedBytes >= st.TotalBytes {
		t.Fatalf("sealed segment not loaded through its index: scanned %d of %d bytes", st.ScannedBytes, st.TotalBytes)
	}

	want := buildGolden(t)
	for _, tab := range want.tables {
		got, err := s.LoadTable(tab.Name())
		if err != nil {
			t.Fatalf("table %s: %v", tab.Name(), err)
		}
		if !got.Equal(tab) || got.RowsRoot() != tab.RowsRoot() {
			t.Fatalf("table %s differs from the one written", tab.Name())
		}
	}
	blocks := s.Blocks()
	if len(blocks) != len(want.blocks) {
		t.Fatalf("%d blocks, want %d", len(blocks), len(want.blocks))
	}
	for i, b := range blocks {
		if b.Hash() != want.blocks[i].Hash() || b.VerifyStructure(nil) != nil {
			t.Fatalf("block %d differs or fails verification", i)
		}
	}
	sm, ok := s.Shares()[want.share.ID]
	if !ok || fmt.Sprint(sm) != fmt.Sprint(want.share) {
		t.Fatalf("share meta %+v, want %+v", sm, want.share)
	}
	cp, ok := s.State()
	if !ok || cp.Height != want.state.Height || cp.Head != want.state.Head || cp.Root != want.state.Root {
		t.Fatalf("state checkpoint %+v", cp)
	}
	sum := statedb.NewStore()
	sum.Import(cp.Entries)
	if sum.Root() != cp.Root {
		t.Fatal("checkpoint entries do not hash to its root")
	}
}
