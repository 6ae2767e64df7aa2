package medshare

// Library micro-benchmarks: lens get/put/delta, table storage, the
// lock-free database, the transient builder and the Merkle row tree, each
// measured in process with no network or chain. Run them with
//
//	go test -run '^$' -bench . -benchmem .
//
// End-to-end figures come from the repository benchmark (bench/ and
// BENCHMARK.json), which runs the deployed profile: daemons over TCP with
// fsyncing stores.

import (
	"fmt"
	"sync"
	"testing"

	"medshare/internal/bx"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// BenchmarkE9_BX_Get measures the forward transformation.
func BenchmarkE9_BX_Get(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			lens := LensD31()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lens.Get(full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_BX_Put measures the whole-view backward transformation,
// bx.Put: a get, a diff against the edited view, and the delta put.
func BenchmarkE9_BX_Put(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			lens := LensD31()
			view, err := lens.Get(full)
			if err != nil {
				b.Fatal(err)
			}
			keys := view.RowsCanonical()
			if err := view.Update(view.KeyValues(keys[0]),
				map[string]reldb.Value{workload.ColDosage: reldb.S("bench")}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bx.Put(lens, full, view); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPutDeltaOneRow is the shared harness of the E9 delta benches: a
// one-row edit of col on the lens's view of an n-row source, propagated
// as a changeset. The first PutDelta outside the timed region warms
// whatever the lens warms (secondary view-key index, compose memo,
// reference index), so the loop measures the steady state a cascade
// pays per update.
func benchPutDeltaOneRow(b *testing.B, src *reldb.Table, lens bx.Lens, col string) {
	b.Helper()
	view, err := lens.Get(src)
	if err != nil {
		b.Fatal(err)
	}
	edited := view.Clone()
	keys := edited.RowsCanonical()
	if err := edited.Update(edited.KeyValues(keys[0]),
		map[string]reldb.Value{col: reldb.S("bench")}); err != nil {
		b.Fatal(err)
	}
	cs, err := view.Diff(edited)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := bx.PutDelta(lens, src, edited, cs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bx.PutDelta(lens, src, edited, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_BX_PutDelta measures the delta path: a one-row view edit
// propagated as a changeset instead of a full put, the hot path of the
// Fig. 5 cascade.
func BenchmarkE9_BX_PutDelta(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchPutDeltaOneRow(b, workload.Generate("full", rows, 1), LensD31(), workload.ColDosage)
		})
	}
}

// BenchmarkReldb_Rows guards the copy-on-write contract: reading all rows
// of a 1000-row table allocates only the header slice, never row data.
func BenchmarkReldb_Rows(b *testing.B) {
	full := workload.Generate("full", 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := full.RowsCanonical(); len(rows) != 1000 {
			b.Fatal("short read")
		}
	}
}

// BenchmarkReldb_Clone measures the O(1)-row-data snapshot that every
// peer takes on each share operation.
func BenchmarkReldb_Clone(b *testing.B) {
	full := workload.Generate("full", 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := full.Clone(); c.Len() != 1000 {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkReldb_HashIncremental measures Hash() after a one-row update
// on an already-hashed 1000-row table — the convergence check both
// replicas run after every update, now O(changed rows) instead of O(n).
func BenchmarkReldb_HashIncremental(b *testing.B) {
	full := workload.Generate("full", 1000, 1)
	full.Hash() // build the digest cache once
	keys := full.RowsCanonical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := full.Update(full.KeyValues(keys[i%len(keys)]),
			map[string]reldb.Value{workload.ColDosage: reldb.S(fmt.Sprintf("d%d", i))}); err != nil {
			b.Fatal(err)
		}
		_ = full.Hash()
	}
}

// BenchmarkStore_PutDeltaScaling is the acceptance benchmark for the
// persistent row storage: the steady-state cost of a one-row delta put
// must be flat in table size (1k vs 100k within ~2x), because no step on
// the delta path copies or scans the whole table anymore.
func BenchmarkStore_PutDeltaScaling(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			lens := LensD31()
			view, err := lens.Get(full)
			if err != nil {
				b.Fatal(err)
			}
			edited := view.Clone()
			keys := edited.RowsCanonical()
			if err := edited.Update(edited.KeyValues(keys[0]),
				map[string]reldb.Value{workload.ColDosage: reldb.S("bench")}); err != nil {
				b.Fatal(err)
			}
			cs, err := view.Diff(edited)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bx.PutDelta(lens, full, edited, cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStore_CommitScaling measures the database commit of a one-row
// update on an already-hashed table across sizes: snapshot clone,
// path-copied mutation, incremental digest maintenance, atomic publish —
// O(log n), flat for practical sizes.
func BenchmarkStore_CommitScaling(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			full.Hash()
			db := reldb.NewDatabase("bench")
			db.PutTable(full)
			keys := full.RowsCanonical()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.WithTable("full", func(t *reldb.Table) error {
					return t.Update(full.KeyValues(keys[i%len(keys)]),
						map[string]reldb.Value{workload.ColDosage: reldb.S("c")})
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStore_ViewDiffScaling measures the structural one-row diff
// (the ProposeUpdate/UpdateView pattern): pointer-equal subtrees are
// pruned, so cost tracks the edit, not the table.
func BenchmarkStore_ViewDiffScaling(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			edited := full.Clone()
			keys := full.RowsCanonical()
			if err := edited.Update(full.KeyValues(keys[rows/2]),
				map[string]reldb.Value{workload.ColDosage: reldb.S("d")}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs, err := full.Diff(edited)
				if err != nil || cs.Size() != 1 {
					b.Fatalf("cs=%d err=%v", cs.Size(), err)
				}
			}
		})
	}
}

// mutexDB reproduces the pre-lock-free reldb.Database — one RWMutex in
// front of a live table map, peer snapshots taken under the write lock
// (the old snapshotTable went through WithTable) — so the concurrency
// benchmarks can quantify the win over that baseline on the same harness.
type mutexDB struct {
	mu     sync.RWMutex
	tables map[string]*reldb.Table
}

func newMutexDB() *mutexDB { return &mutexDB{tables: make(map[string]*reldb.Table)} }

func (d *mutexDB) put(t *reldb.Table) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tables[t.Name()] = t
}

func (d *mutexDB) snapshot(name string) *reldb.Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tables[name].Clone()
}

func (d *mutexDB) withTable(name string, fn func(*reldb.Table) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fn(d.tables[name])
}

// benchTables is the many-shares peer's database shape: one wide source
// plus one materialized view per share.
func benchTables(shares, rows int) []*reldb.Table {
	src := workload.GenerateManyShares("T", shares, rows, 1)
	out := []*reldb.Table{src}
	for i := 0; i < shares; i++ {
		lens := bx.Project(fmt.Sprintf("V%d", i), []string{"k", workload.ManyShareCol(i)}, nil)
		v, err := lens.Get(src)
		if err != nil {
			panic(err)
		}
		out = append(out, v)
	}
	return out
}

// BenchmarkDB_ConcurrentReaders measures the snapshot-read path every
// fetch handler and share operation takes, under parallel load across
// the views of a 64-share peer. Run with -cpu=1,4 to see the scaling;
// the globalmutex baseline serializes all readers behind one lock while
// the lock-free path is one atomic load plus an O(1) COW clone.
func BenchmarkDB_ConcurrentReaders(b *testing.B) {
	const shares, rows = 64, 256
	tables := benchTables(shares, rows)
	key := reldb.Row{reldb.I(7)}

	b.Run("lockfree", func(b *testing.B) {
		db := reldb.NewDatabase("bench")
		for _, t := range tables {
			db.PutTable(t)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := fmt.Sprintf("V%d", i%shares)
				i++
				t, err := db.Table(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := t.Get(key); !ok {
					b.Fatal("missing row")
				}
			}
		})
	})
	b.Run("globalmutex", func(b *testing.B) {
		db := newMutexDB()
		for _, t := range tables {
			db.put(t)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := fmt.Sprintf("V%d", i%shares)
				i++
				t := db.snapshot(name)
				if _, ok := t.Get(key); !ok {
					b.Fatal("missing row")
				}
			}
		})
	})
}

// BenchmarkDB_ReadersUnderWriter is the same read path while one writer
// goroutine continuously commits to a table the readers never touch —
// per-table commits leave the read path untouched, a global lock stalls
// every reader behind every commit.
func BenchmarkDB_ReadersUnderWriter(b *testing.B) {
	const shares, rows = 64, 256
	tables := benchTables(shares, rows)
	key := reldb.Row{reldb.I(7)}

	b.Run("lockfree", func(b *testing.B) {
		db := reldb.NewDatabase("bench")
		for _, t := range tables {
			db.PutTable(t)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				j++
				_ = db.WithTable("T", func(t *reldb.Table) error {
					return t.Update(reldb.Row{reldb.I(int64(j % rows))},
						map[string]reldb.Value{workload.ManyShareCol(0): reldb.S(fmt.Sprintf("w%d", j))})
				})
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := fmt.Sprintf("V%d", 1+i%(shares-1))
				i++
				t, err := db.Table(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := t.Get(key); !ok {
					b.Fatal("missing row")
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	b.Run("globalmutex", func(b *testing.B) {
		db := newMutexDB()
		for _, t := range tables {
			db.put(t)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				j++
				_ = db.withTable("T", func(t *reldb.Table) error {
					return t.Update(reldb.Row{reldb.I(int64(j % rows))},
						map[string]reldb.Value{workload.ManyShareCol(0): reldb.S(fmt.Sprintf("w%d", j))})
				})
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := fmt.Sprintf("V%d", 1+i%(shares-1))
				i++
				t := db.snapshot(name)
				if _, ok := t.Get(key); !ok {
					b.Fatal("missing row")
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkE9_BX_PutDeltaRekeyed measures the delta path through a
// re-keyed projection (the paper's D23/D32: view keyed on medication,
// source keyed on patient): O(changed rows) through the source's
// secondary view-key index, warmed the way a live share is warm after
// its first delta.
func BenchmarkE9_BX_PutDeltaRekeyed(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchPutDeltaOneRow(b, workload.Generate("full", rows, 1), LensD32(), workload.ColMechanism)
		})
	}
}

// BenchmarkE9_BX_PutDeltaCompose measures the delta path through a
// composed lens (Select ∘ Project): the intermediate view comes from the
// lens's hash-keyed memo, warmed like a steady cascade.
func BenchmarkE9_BX_PutDeltaCompose(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			full.Hash() // warm the memo key's hash state
			lens := bx.Compose(
				bx.Select("sel", reldb.True()),
				bx.Project("proj", workload.ShareD13Cols, nil),
			)
			benchPutDeltaOneRow(b, full, lens, workload.ColDosage)
		})
	}
}

// BenchmarkJoinDelta measures a one-row view edit embedded through
// JoinLens's native PutDelta (per-changed-row re-join against the
// reference's prefix-scan index) — the last lens on the update path
// that used to pay an O(table) full put + diff.
func BenchmarkJoinDelta(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			rx, err := full.Project("RX", workload.PrescriptionCols, nil)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := formulary(full)
			if err != nil {
				b.Fatal(err)
			}
			benchPutDeltaOneRow(b, rx, bx.Join("RXF", ref), workload.ColDosage)
		})
	}
}

// BenchmarkBuilder_TableRebuild measures rebuilding an n-row table from
// a canonical scan through the transient TableBuilder — the bulk path
// under every out-of-shape lens rebuild — against the per-row insert
// baseline it replaces.
func BenchmarkBuilder_TableRebuild(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		full := workload.Generate("full", rows, 1)
		all := full.RowsCanonical()
		schema := full.Schema()
		b.Run(fmt.Sprintf("builder/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld, err := reldb.NewTableBuilder(schema)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range all {
					if err := bld.Append(r); err != nil {
						b.Fatal(err)
					}
				}
				if bld.Table().Len() != rows {
					b.Fatal("short build")
				}
			}
		})
		b.Run(fmt.Sprintf("insert/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := reldb.MustNewTable(schema)
				for _, r := range all {
					if err := t.InsertOwned(r); err != nil {
						b.Fatal(err)
					}
				}
				if t.Len() != rows {
					b.Fatal("short build")
				}
			}
		})
	}
}

// BenchmarkBuilder_LensRebuild measures the whole-view get of a
// D31-style projection (the O(n)-by-nature bootstrap of a share), rebuilt
// on the source's tree shape with every row's subtree shared.
func BenchmarkBuilder_LensRebuild(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		full := workload.Generate("full", rows, 1)
		lens := LensD31()
		b.Run(fmt.Sprintf("get/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lens.Get(full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMerkle_RootUpdateScaling is the acceptance benchmark for the
// Merkle row tree: the root refresh after a one-row edit of an
// already-hashed table must be flat in table size (1k vs 100k within
// ~2x) — a path re-hash, never an O(n) rebuild.
func BenchmarkMerkle_RootUpdateScaling(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			full := workload.Generate("full", rows, 1)
			full.Hash() // steady state: digest cache warm
			keys := full.RowsCanonical()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := full.Clone()
				if err := t.Update(full.KeyValues(keys[i%len(keys)]),
					map[string]reldb.Value{workload.ColDosage: reldb.S(fmt.Sprintf("m%d", i))}); err != nil {
					b.Fatal(err)
				}
				_ = t.Hash()
			}
		})
	}
}

// BenchmarkMerkle_Prove and BenchmarkMerkle_Verify measure one
// membership-proof round on a 10k-row table (O(log n) each).
func BenchmarkMerkle_Prove(b *testing.B) {
	full := workload.Generate("full", 10000, 1)
	full.Hash()
	keys := full.RowsCanonical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := full.ProveRow(full.KeyValues(keys[i%len(keys)])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkle_Verify(b *testing.B) {
	full := workload.Generate("full", 10000, 1)
	root := full.RowsRoot()
	keys := full.RowsCanonical()
	row, proof, err := full.ProveRow(full.KeyValues(keys[5000]))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !reldb.VerifyRowProof(root, row, proof) {
			b.Fatal("proof rejected")
		}
	}
}
