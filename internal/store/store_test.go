package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
)

func testSchema(name string) reldb.Schema {
	return reldb.Schema{
		Name: name,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
			{Name: "dose", Type: reldb.KindString},
		},
		Key: []string{"id"},
	}
}

func testTable(t *testing.T, name string, rows int) *reldb.Table {
	t.Helper()
	tab := reldb.MustNewTable(testSchema(name))
	for i := 0; i < rows; i++ {
		tab.MustInsert(reldb.Row{reldb.I(int64(i)), reldb.S(fmt.Sprintf("n%d", i)), reldb.S("d1")})
	}
	return tab
}

func mustCommitTable(t *testing.T, s *Store, tab *reldb.Table) {
	t.Helper()
	if err := s.Commit(func(b *Batch) error { return b.PutTable(tab) }); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestStoreRoundTrip: a store persists tables, blocks, share metas and
// a state checkpoint, and a reopen recovers all of it verified.
func TestStoreRoundTrip(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "fig1", 50)
	gen := chain.Genesis("test")
	sum := statedb.NewStore()
	sum.Commit(statedb.WriteSet{"k1": []byte("v1")}, statedb.Version{Height: 1})

	err = s.Commit(func(b *Batch) error {
		if err := b.PutTable(tab); err != nil {
			return err
		}
		if err := b.PutBlock(gen); err != nil {
			return err
		}
		if err := b.PutShareMeta(ShareMeta{ID: "sh1", Seq: 3, Source: "fig1", View: "v_sh1"}); err != nil {
			return err
		}
		return b.PutState(StateCheckpoint{Height: 1, Root: sum.Root(), Entries: sum.Export()})
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.TailBytes != 0 || st.TornTail {
		t.Fatalf("clean log reports tail: %+v", st)
	}
	got, err := r.LoadTable("fig1")
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	if got.Hash() != tab.Hash() {
		t.Fatal("recovered table hash differs")
	}
	if bl := r.Blocks(); len(bl) != 1 || bl[0].Hash() != gen.Hash() {
		t.Fatalf("recovered blocks wrong: %d", len(bl))
	}
	if sm, ok := r.Shares()["sh1"]; !ok || sm.Seq != 3 || sm.View != "v_sh1" {
		t.Fatalf("recovered share meta wrong: %+v", sm)
	}
	cp, ok := r.State()
	if !ok || cp.Height != 1 {
		t.Fatalf("recovered state checkpoint wrong: %+v ok=%v", cp, ok)
	}
	rec := statedb.NewStore()
	rec.Import(cp.Entries)
	if rec.Root() != cp.Root {
		t.Fatal("imported state root does not match checkpoint root")
	}
}

// TestStoreLatin1Cell: a cell that is not valid UTF-8 (a Latin-1 "é"
// from a legacy feed) persists byte for byte, so the reloaded table has
// the committed Merkle root instead of failing verification.
func TestStoreLatin1Cell(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "latin1", 40)
	if err := tab.Update(reldb.Row{reldb.I(7)}, map[string]reldb.Value{"name": reldb.S("caf\xe9")}); err != nil {
		t.Fatal(err)
	}
	mustCommitTable(t, s, tab)
	s.Close()
	r, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.LoadTable("latin1")
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	if !got.Equal(tab) || got.RowsRoot() != tab.RowsRoot() {
		t.Fatal("reloaded table differs from the committed one")
	}
}

// TestStoreRefusesOldFormat: a data dir written before format frames
// (format version 1: JSON-row node records of the retired kind 1, JSON
// table roots, blocks and commit markers), the committed version 2
// golden data dir (whose blocks commit to the retired flat state root)
// and a segment of a newer version each fail Open with the named
// version error, which states both versions, and are left untouched: no
// record of them is skipped, truncated or misread, and no file is added.
func TestStoreRefusesOldFormat(t *testing.T) {
	tab := testTable(t, "old", 1)
	var nd reldb.NodeData
	tab.ExportNodes(nil, func(n reldb.NodeData) bool { nd = n; return true })
	tr, err := json.Marshal(map[string]any{"name": "old", "schema": tab.Schema(), "root": tab.RowsRoot(), "rows": 1})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := json.Marshal(chain.Genesis("test"))
	if err != nil {
		t.Fatal(err)
	}
	const kindNodeJSON = 1
	old := append(append(nd.Digest[:], make([]byte, 2*digLen)...), `[{"k":"int","v":"0"},{"k":"string","v":"n0"},{"k":"string","v":"d1"}]`...)
	log := appendFrame(nil, kindNodeJSON, old)
	log = appendFrame(log, kindTableRoot, tr)
	log = appendFrame(log, kindBlock, blk)
	log = appendFrame(log, kindCommit, []byte(`{"seq":1}`))
	goldenV2 := readDataDir(t, filepath.Join("testdata", "golden-v2"))
	if len(goldenV2) < 2 {
		t.Fatalf("golden-v2 holds %d files, want its segments and index", len(goldenV2))
	}

	for name, tc := range map[string]struct {
		files   map[string][]byte
		version int // the version the error must name; 0 for none
	}{
		"v1 log":         {map[string][]byte{segName(0): log}, 1},
		"v2 golden":      {goldenV2, 2},
		"v4 format":      {map[string][]byte{segName(0): appendFrame(nil, kindFormat, []byte{4})}, 4},
		"v3 then v1 log": {map[string][]byte{segName(0): append(appendFrame(nil, kindFormat, appendFormatRec(nil)), log...)}, 0},
	} {
		fs := NewMemFS()
		for fn, data := range tc.files {
			f, _ := fs.OpenAppend(fn)
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Open(Options{FS: fs})
		if err == nil {
			t.Fatalf("%s: Open accepted it", name)
		}
		if tc.version != 0 {
			want := fmt.Sprintf("is format version %d, this build reads version %d", tc.version, FormatVersion)
			if !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: Open error %q; want ErrFormatVersion saying %q", name, err, want)
			}
		}
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(tc.files) {
			t.Fatalf("%s: refused data dir went from %d files to %v", name, len(tc.files), names)
		}
		for fn, data := range tc.files {
			f, err := fs.Open(fn)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, fn, err)
			}
			if sz, _ := f.Size(); sz != int64(len(data)) {
				t.Fatalf("%s: refused file %s changed size %d -> %d", name, fn, len(data), sz)
			}
		}
	}
}

// TestStoreIncrementalWrite: committing a one-row delta appends
// O(changed nodes), not the whole table.
func TestStoreIncrementalWrite(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab := testTable(t, "big", 2000)
	mustCommitTable(t, s, tab)
	full := s.Stats().TotalBytes

	tab2 := tab.Clone()
	if err := tab2.Update(reldb.Row{reldb.I(7)}, map[string]reldb.Value{"dose": reldb.S("d9")}); err != nil {
		t.Fatal(err)
	}
	mustCommitTable(t, s, tab2)
	delta := s.Stats().TotalBytes - full
	if delta <= 0 || delta > full/10 {
		t.Fatalf("one-row delta cost %d bytes vs %d full — not incremental", delta, full)
	}

	r, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.LoadTable("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tab2.Hash() {
		t.Fatal("reopen did not yield the latest committed table")
	}
}

// TestStoreRotationAndIndex: segments rotate, sealed segments recover
// through their sidecar index (cheaper than a full scan), and a
// corrupt index silently falls back to scanning.
func TestStoreRotationAndIndex(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "rot", 40)
	mustCommitTable(t, s, tab)
	for i := 0; i < 30; i++ {
		tab = tab.Clone()
		if err := tab.Update(reldb.Row{reldb.I(int64(i % 40))}, map[string]reldb.Value{"dose": reldb.S(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
		mustCommitTable(t, s, tab)
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("expected rotation, got %d segments (total %d bytes)", s.Stats().Segments, s.Stats().TotalBytes)
	}
	s.Close()

	r, err := Open(Options{FS: fs, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fast := r.Stats()
	if fast.ScannedBytes >= fast.TotalBytes {
		t.Fatalf("indexed recovery scanned %d of %d bytes — index not used", fast.ScannedBytes, fast.TotalBytes)
	}
	got, err := r.LoadTable("rot")
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tab.Hash() {
		t.Fatal("indexed recovery yielded wrong table")
	}
	r.Close()

	// Corrupt every index file: recovery must fall back to full scans
	// and still produce the same table.
	names, _ := fs.List()
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".idx" {
			f, _ := fs.OpenAppend(n)
			f.Write([]byte("garbage"))
			f.Close()
		}
	}
	r2, err := Open(Options{FS: fs, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	slow := r2.Stats()
	if slow.ScannedBytes <= fast.ScannedBytes {
		t.Fatalf("fallback scan (%d) not larger than indexed scan (%d)", slow.ScannedBytes, fast.ScannedBytes)
	}
	got2, err := r2.LoadTable("rot")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Hash() != tab.Hash() {
		t.Fatal("fallback recovery yielded wrong table")
	}
}

// TestStoreTornTail: garbage or a half-written frame at the end of the
// log is detected, truncated, and recovery lands on the last durable
// commit.
func TestStoreTornTail(t *testing.T) {
	base := NewMemFS()
	s, err := Open(Options{FS: base})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "tt", 20)
	mustCommitTable(t, s, tab)
	wantHash := tab.Hash()
	tab2 := tab.Clone()
	tab2.MustInsert(reldb.Row{reldb.I(999), reldb.S("late"), reldb.S("d")})
	mustCommitTable(t, s, tab2)
	s.Close()

	seg := segName(0)
	cases := map[string]func(fs *MemFS){
		"garbage-appended": func(fs *MemFS) {
			f, _ := fs.OpenAppend(seg)
			f.Write([]byte{frameMagic, 9, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5})
			f.Close()
		},
		"half-frame": func(fs *MemFS) {
			f, _ := fs.OpenAppend(seg)
			f.Write(appendFrame(nil, kindCommit, []byte(`{"seq":99}`))[:7])
			f.Close()
		},
		"truncated-mid-commit": func(fs *MemFS) {
			rf, _ := fs.Open(seg)
			sz, _ := rf.Size()
			fs.Truncate(seg, sz-5)
		},
	}
	for name, corrupt := range cases {
		fs := base.Clone()
		corrupt(fs)
		r, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		st := r.Stats()
		if !st.TornTail || st.TailBytes == 0 {
			t.Fatalf("%s: tail not detected: %+v", name, st)
		}
		got, err := r.LoadTable("tt")
		if err != nil {
			t.Fatalf("%s: LoadTable: %v", name, err)
		}
		h := got.Hash()
		if name == "truncated-mid-commit" {
			// The second commit group lost its marker: recovery must land
			// exactly on the first commit.
			if h != wantHash {
				t.Fatalf("%s: did not land on previous durable commit", name)
			}
		} else if h != tab2.Hash() && h != wantHash {
			t.Fatalf("%s: recovered table matches no committed state", name)
		}
		// The truncated log must accept new commits cleanly.
		tab3 := got.Clone()
		tab3.MustInsert(reldb.Row{reldb.I(5000), reldb.S("post"), reldb.S("d")})
		mustCommitTable(t, r, tab3)
		r.Close()
		r2, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatalf("%s: second reopen: %v", name, err)
		}
		if g, err := r2.LoadTable("tt"); err != nil || g.Hash() != tab3.Hash() {
			t.Fatalf("%s: post-truncation commit not durable: %v", name, err)
		}
		r2.Close()
	}
}

// TestStoreCleanStop: a clean-shutdown commit leaves zero tail bytes —
// a graceful stop never relies on recovery (the satellite-4
// regression).
func TestStoreCleanStop(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "cs", 10)
	mustCommitTable(t, s, tab)
	sum := statedb.NewStore()
	sum.Commit(statedb.WriteSet{"a": []byte("b")}, statedb.Version{Height: 2})
	err = s.Commit(func(b *Batch) error {
		b.MarkClean()
		return b.PutState(StateCheckpoint{Height: 2, Root: sum.Root(), Entries: sum.Export()})
	})
	if err != nil {
		t.Fatal(err)
	}
	commits := s.Stats().Commits
	s.Close()

	r, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.TailBytes != 0 || st.TornTail || !st.CleanShutdown {
		t.Fatalf("clean stop left tail to replay: %+v", st)
	}
	if st.Commits != commits {
		t.Fatalf("reopened store reports commit %d, want the last durable one, %d", st.Commits, commits)
	}
}

// TestStoreWriteFailure: an injected device failure poisons the write
// path (no silent interleaving at an unknown position) while reads
// keep working.
func TestStoreWriteFailure(t *testing.T) {
	ffs := NewFaultFS()
	s, err := Open(Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab := testTable(t, "wf", 10)
	mustCommitTable(t, s, tab)
	ffs.FailWritesAfter(ffs.TotalBytes() + 10)

	tab2 := tab.Clone()
	tab2.MustInsert(reldb.Row{reldb.I(100), reldb.S("x"), reldb.S("y")})
	if err := s.Commit(func(b *Batch) error { return b.PutTable(tab2) }); err == nil {
		t.Fatal("commit past injected failure succeeded")
	}
	if err := s.Commit(func(b *Batch) error { return b.PutTable(tab2) }); err == nil {
		t.Fatal("store not poisoned after write failure")
	}
	if got, err := s.LoadTable("wf"); err != nil || got.Hash() != tab.Hash() {
		t.Fatalf("reads broken after write failure: %v", err)
	}
}

// TestFaultFSSurvivors pins the three crash models' semantics.
func TestFaultFSSurvivors(t *testing.T) {
	ffs := NewFaultFS()
	f, _ := ffs.OpenAppend("a")
	f.Write([]byte("hello"))
	f.Sync()
	f.Write([]byte("world"))

	read := func(m *MemFS) string {
		rf, err := m.Open("a")
		if err != nil {
			return ""
		}
		sz, _ := rf.Size()
		buf := make([]byte, sz)
		if sz > 0 {
			rf.ReadAt(buf, 0)
		}
		return string(buf)
	}

	if got := read(ffs.SurvivorAt(7, CrashTorn)); got != "hellowo" {
		t.Fatalf("torn at 7: %q", got)
	}
	if got := read(ffs.SurvivorAt(7, CrashDropUnsynced)); got != "hello" {
		t.Fatalf("drop-unsynced at 7: %q", got)
	}
	if got := read(ffs.SurvivorAt(0, CrashTorn)); got != "" {
		t.Fatalf("torn at 0: %q", got)
	}
	flipped := read(ffs.SurvivorAt(1, CrashBitFlip))
	if flipped == "helloworld" || len(flipped) != 10 {
		t.Fatalf("bitflip at 1: %q", flipped)
	}
	if ffs.TotalBytes() != 10 {
		t.Fatalf("TotalBytes = %d", ffs.TotalBytes())
	}
	if pts := ffs.SyncPoints(); len(pts) != 1 || pts[0] != 5 {
		t.Fatalf("SyncPoints = %v", pts)
	}
}

// TestPropertyRecoveryEquivalence is the satellite-2 property test:
// for a random operation sequence over multiple tables, the state
// rebuilt via store recovery is digest-identical to the state rebuilt
// in memory — at full durability and at every probed crash prefix.
func TestPropertyRecoveryEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			ffs := NewFaultFS()
			s, err := Open(Options{FS: ffs, SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}

			names := []string{"alpha", "beta"}
			mem := map[string]*reldb.Table{}
			for _, n := range names {
				tab := reldb.MustNewTable(testSchema(n))
				if n == "beta" {
					tab = tab.Reseeded([]byte("beta-secret"))
				}
				mem[n] = tab
			}
			// hashAt[i] = per-table hash after commit i (the reference
			// history an interrupted recovery must land on a prefix of).
			type snap map[string][32]byte
			var history []snap

			commits := 30
			if testing.Short() {
				commits = 12
			}
			for c := 0; c < commits; c++ {
				n := names[rng.Intn(len(names))]
				tab := mem[n].Clone()
				for e := 0; e < 1+rng.Intn(4); e++ {
					id := int64(rng.Intn(30))
					switch rng.Intn(4) {
					case 0:
						_ = tab.Delete(reldb.Row{reldb.I(id)})
					default:
						_ = tab.Upsert(reldb.Row{reldb.I(id), reldb.S(fmt.Sprintf("n%d", id)), reldb.S(fmt.Sprintf("d%d", rng.Intn(9)))})
					}
				}
				tab = tab.Reseeded(mem[n].PrioritySecret())
				mem[n] = tab
				mustCommitTable(t, s, tab)
				sn := snap{}
				for _, nm := range names {
					sn[nm] = mem[nm].Hash()
				}
				history = append(history, sn)
			}
			s.Close()

			verify := func(fs *MemFS, label string) {
				r, err := Open(Options{FS: fs})
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				defer r.Close()
				got := snap{}
				for name := range r.Tables() {
					tab, err := r.LoadTable(name)
					if err != nil {
						// Detected corruption is an acceptable outcome for a
						// crash prefix — the share layer heals via resync. It
						// must be *detected*, never silent; nothing to compare.
						return
					}
					got[name] = tab.Hash()
				}
				// The recovered state must be SOME prefix of history
				// (per-table latest-commit-at-that-prefix), never a state
				// that was never committed.
				for i := len(history) - 1; i >= 0; i-- {
					match := true
					for name, h := range got {
						if history[i][name] != h {
							match = false
							break
						}
					}
					if match && len(got) == len(history[i]) {
						return
					}
				}
				// Partial recovery (one table present, other not yet
				// committed) happens for early prefixes; check each table's
				// hash appeared somewhere in history.
				for name, h := range got {
					seen := false
					for _, sn := range history {
						if sn[name] == h {
							seen = true
							break
						}
					}
					if !seen {
						t.Fatalf("%s: table %s recovered to a state never committed", label, name)
					}
				}
			}

			// Full recovery must equal the final in-memory state exactly.
			r, err := Open(Options{FS: ffs.SurvivorAt(ffs.TotalBytes(), CrashTorn)})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				got, err := r.LoadTable(n)
				if err != nil {
					t.Fatalf("full recovery load %s: %v", n, err)
				}
				if got.Hash() != mem[n].Hash() {
					t.Fatalf("full recovery of %s differs from in-memory state", n)
				}
			}
			r.Close()

			// Random crash prefixes: recovery is a committed prefix or a
			// detected failure — never silent divergence.
			total := ffs.TotalBytes()
			probes := 25
			if testing.Short() {
				probes = 8
			}
			for p := 0; p < probes; p++ {
				n := rng.Int63n(total + 1)
				verify(ffs.SurvivorAt(n, CrashTorn), fmt.Sprintf("torn@%d", n))
				verify(ffs.SurvivorAt(n, CrashDropUnsynced), fmt.Sprintf("drop@%d", n))
				verify(ffs.SurvivorAt(n, CrashBitFlip), fmt.Sprintf("flip@%d", n))
			}
		})
	}
}

// segmentSize reads the on-disk size of segment i.
func segmentSize(t *testing.T, fs FS, i int) int64 {
	t.Helper()
	f, err := fs.Open(segName(i))
	if err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	return sz
}

// TestStoreWrittenAddsUp: the per-kind write counters of one commit add
// up to the bytes that landed in the segment, and a fresh store's
// counters account for every byte of its log, format frame included.
func TestStoreWrittenAddsUp(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCommitTable(t, s, testTable(t, "w", 30))
	sum := func(w map[string]KindWrites) (bytes, records int64) {
		for _, k := range w {
			bytes += k.Bytes
			records += k.Records
		}
		return bytes, records
	}
	before, _ := sum(s.Stats().Written)
	if sz := segmentSize(t, fs, 0); before != sz {
		t.Fatalf("counters say %d bytes, the segment holds %d", before, sz)
	}

	tab := testTable(t, "w", 30)
	if err := tab.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"dose": reldb.S("d7")}); err != nil {
		t.Fatal(err)
	}
	segBefore := segmentSize(t, fs, 0)
	w0 := s.Stats().Written
	err = s.Commit(func(b *Batch) error {
		if err := b.PutTable(tab); err != nil {
			return err
		}
		if err := b.PutBlock(chain.Genesis("w")); err != nil {
			return err
		}
		return b.PutShareMeta(ShareMeta{ID: "sh", Seq: 1, Source: "w", View: "w"})
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := s.Stats().Written
	var delta int64
	for k, w := range w1 {
		d := w.Bytes - w0[k].Bytes
		if d < 0 {
			t.Fatalf("kind %s counter went down", k)
		}
		delta += d
	}
	if grew := segmentSize(t, fs, 0) - segBefore; delta != grew {
		t.Fatalf("one commit: counters add up to %d bytes, the segment grew %d", delta, grew)
	}
	for _, k := range []string{"node", "table_root", "block", "share_meta", "commit"} {
		if w1[k].Records <= w0[k].Records {
			t.Errorf("commit wrote no %s record by the counters", k)
		}
	}
}

// TestStoreLostFormatFrame: an active segment that a crash left empty
// or with a torn format frame held nothing committed; Open starts it
// over and the store keeps working.
func TestStoreLostFormatFrame(t *testing.T) {
	base := NewMemFS()
	s, err := Open(Options{FS: base, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "lf", 20)
	mustCommitTable(t, s, tab)
	segs := s.Stats().Segments
	s.Close()
	if segs < 2 {
		t.Fatalf("want a rotation, have %d segment(s)", segs)
	}
	last := segName(segs - 1)
	for _, keep := range []int64{0, 4} {
		fs := base.Clone()
		if err := fs.Truncate(last, keep); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{FS: fs, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if got, err := r.LoadTable("lf"); err != nil || got.Hash() != tab.Hash() {
			t.Fatalf("keep %d: table after restart: %v", keep, err)
		}
		mustCommitTable(t, r, tab.Reseeded([]byte("again")))
		r.Close()
		if _, err := Open(Options{FS: fs}); err != nil {
			t.Fatalf("keep %d: reopen after a new commit: %v", keep, err)
		}
	}
}

// segmentBytes reads the whole of segment name.
func segmentBytes(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestStoreOpenReadError: a device error reading the active segment's
// format frame fails Open with that error and leaves the segment as it
// was; once reads work again the store opens with everything in it.
func TestStoreOpenReadError(t *testing.T) {
	ffs := NewFaultFS()
	s, err := Open(Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, "rd", 20)
	mustCommitTable(t, s, tab)
	s.Close()
	before := segmentBytes(t, ffs, segName(0))

	ffs.FailReadsOf(segName(0))
	if _, err := Open(Options{FS: ffs}); !errors.Is(err, ErrInjectedReadFailure) {
		t.Fatalf("Open with an unreadable active segment: %v; want the read error", err)
	}
	ffs.FailReadsOf("")
	if after := segmentBytes(t, ffs, segName(0)); string(after) != string(before) {
		t.Fatalf("a failed Open changed the segment: %d bytes -> %d", len(before), len(after))
	}
	r, err := Open(Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.LoadTable("rd"); err != nil || got.Hash() != tab.Hash() {
		t.Fatalf("table after the device recovered: %v", err)
	}
}

// TestStoreDamagedFormatFrame: a damaged format frame is not mistaken
// for a crash. An active segment with records behind it fails Open and
// is left untouched; a sealed one still loads through its index, and
// without an index it counts as degraded. An active segment that holds
// nothing past the damaged frame committed nothing and starts over.
func TestStoreDamagedFormatFrame(t *testing.T) {
	flip := func(fs *MemFS, name string) {
		fs.files[name][formatFrameLen-1] ^= 0x40
	}

	t.Run("active", func(t *testing.T) {
		fs := NewMemFS()
		s, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		mustCommitTable(t, s, testTable(t, "af", 5))
		s.Close()
		flip(fs, segName(0))
		before := segmentBytes(t, fs, segName(0))
		if _, err := Open(Options{FS: fs}); err == nil || !strings.Contains(err.Error(), "damaged format frame") {
			t.Fatalf("Open over a damaged active format frame: %v", err)
		}
		if after := segmentBytes(t, fs, segName(0)); string(after) != string(before) {
			t.Fatalf("a refused Open changed the segment: %d bytes -> %d", len(before), len(after))
		}
	})

	t.Run("sealed", func(t *testing.T) {
		fs := NewMemFS()
		s, err := Open(Options{FS: fs, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		tab := testTable(t, "sf", 20)
		mustCommitTable(t, s, tab)
		if segs := s.Stats().Segments; segs != 2 {
			t.Fatalf("want the commit sealed in segment 0, have %d segment(s)", segs)
		}
		s.Close()
		flip(fs, segName(0))

		r, err := Open(Options{FS: fs.Clone(), SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.LoadTable("sf"); err != nil || got.Hash() != tab.Hash() || r.Stats().DegradedSegments != 0 {
			t.Fatalf("sealed segment through its index: %v, %d degraded", err, r.Stats().DegradedSegments)
		}
		r.Close()

		delete(fs.files, segName(0)+".idx")
		r, err = Open(Options{FS: fs, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if st := r.Stats(); st.DegradedSegments != 1 || st.TornTail {
			t.Fatalf("sealed segment without an index: %d degraded, torn tail %v", st.DegradedSegments, st.TornTail)
		}
	})

	t.Run("nothing behind it", func(t *testing.T) {
		fs := NewMemFS()
		s, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		flip(fs, segName(0))
		r, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		mustCommitTable(t, r, testTable(t, "nb", 3))
		r.Close()
		if _, err := Open(Options{FS: fs}); err != nil {
			t.Fatalf("reopen after a new commit: %v", err)
		}
	})
}
