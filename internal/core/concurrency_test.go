package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// stressHarness is a hub peer sharing one source table with K counterpart
// peers, one share per counterpart — the many-shares fan-out shape. Share
// i projects column v<i>, so the updater goroutines write disjoint
// columns and the sequential outcome is deterministic.
type stressHarness struct {
	node     *node.Node
	hub      *Peer
	partners []*Peer
	shares   []string
}

// stressSchema is the many-shares scenario schema from the workload
// package (one int key plus one value column per share).
func stressSchema(name string, cols int) reldb.Schema {
	return workload.ManySharesSchema(name, cols)
}

// newStressHarness builds the harness; tweak, when given, edits each
// peer's Config before the peer is created.
func newStressHarness(t *testing.T, shares, rows int, tweak ...func(name string, cfg *Config)) *stressHarness {
	t.Helper()
	o := hubOpts{shares: shares, partners: shares, rows: rows}
	if len(tweak) > 0 {
		o.tweak = tweak[0]
	}
	return newHubHarness(t, o)
}

// hubOpts shapes a hub harness: shares spread over partners
// counterparts (share i on partner i·partners/shares, each partner's
// source holding the key and its shares' columns), rows per table, an
// optional per-peer Config hook, and an optional hook choosing the
// source table a partner binds share i over (default "T").
type hubOpts struct {
	shares, partners, rows int
	tweak                  func(name string, cfg *Config)
	source                 func(i int, p *Peer) string
}

// newHubHarness builds the hub harness newStressHarness describes, with
// the counterpart shape o asks for.
func newHubHarness(t *testing.T, o hubOpts) *stressHarness {
	t.Helper()
	shares, rows := o.shares, o.rows
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "stress-test",
		Identity:      nid,
		Engine:        consensus.NewPoA(false, nid.Address()),
		Registry:      contract.NewRegistry(sharereg.New()),
		BlockInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	n.Start(ctx)
	t.Cleanup(n.Stop)

	mem := p2p.NewMemNetwork()
	dir := NewDirectory()
	mk := func(name string, schema reldb.Schema) *Peer {
		id := identity.MustNew(name)
		db := reldb.NewDatabase(name)
		tbl := reldb.MustNewTable(schema)
		for r := 0; r < rows; r++ {
			row := reldb.Row{reldb.I(int64(r))}
			for c := 1; c < len(schema.Columns); c++ {
				row = append(row, reldb.S("init"))
			}
			tbl.MustInsert(row)
		}
		db.PutTable(tbl)
		cfg := Config{
			Identity: id, DB: db, Node: n,
			Transport: mem.Endpoint(name), Directory: dir,
		}
		if o.tweak != nil {
			o.tweak(name, &cfg)
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}

	h := &stressHarness{node: n}
	h.hub = mk("hub", stressSchema("T", shares))
	partnerOf := func(i int) int { return i * o.partners / shares }
	for j := 0; j < o.partners; j++ {
		// A counterpart's source holds only the columns its shares see.
		pschema := reldb.Schema{Name: "T", Key: []string{"k"}, Columns: []reldb.Column{{Name: "k", Type: reldb.KindInt}}}
		for i := 0; i < shares; i++ {
			if partnerOf(i) == j {
				pschema.Columns = append(pschema.Columns, reldb.Column{Name: workload.ManyShareCol(i), Type: reldb.KindString})
			}
		}
		h.partners = append(h.partners, mk(fmt.Sprintf("peer%d", j), pschema))
	}

	octx, ocancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer ocancel()
	for i := 0; i < shares; i++ {
		id := fmt.Sprintf("S%d", i)
		col := workload.ManyShareCol(i)
		partner := h.partners[partnerOf(i)]
		hubLens := bx.Project(id+"h", []string{"k", col}, nil)
		err := h.hub.RegisterShare(octx, RegisterShareArgs{
			ID: id, SourceTable: "T", Lens: hubLens, ViewName: id + "h",
			Peers: []identity.Address{h.hub.Address(), partner.Address()},
			WritePerm: map[string][]identity.Address{
				col: {h.hub.Address(), partner.Address()},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := "T"
		if o.source != nil {
			src = o.source(i, partner)
		}
		pl := bx.Project(id+"p", []string{"k", col}, nil)
		if err := partner.AttachShare(id, src, pl, id+"p"); err != nil {
			t.Fatal(err)
		}
		h.shares = append(h.shares, id)
	}
	return h
}

// slowSyncFS gives every fsync a disk's latency, so concurrent store
// commits queue on the store lock the way they do over a real directory.
type slowSyncFS struct{ store.FS }

func (f slowSyncFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	return slowSyncFile{file}, err
}

type slowSyncFile struct{ store.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(300 * time.Microsecond)
	return f.File.Sync()
}

// TestConcurrentAppliesPersistNewestSource: sixteen shares over one
// source apply incoming updates concurrently, in receive rounds of
// whatever each block brought (several rounds may run at once), each
// round persisting the shared source table. Whatever order the store
// commits land in, the last one must carry the newest source: a crash
// image taken once the round is final has to reopen to the live source
// table.
func TestConcurrentAppliesPersistNewestSource(t *testing.T) {
	const (
		shares = 16
		rows   = 8
		rounds = 50
	)
	ffs := store.NewFaultFS()
	st, err := store.Open(store.Options{FS: slowSyncFS{ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := newStressHarness(t, shares, rows, func(name string, cfg *Config) {
		if name == "hub" {
			cfg.Store = st
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		for i, p := range h.partners {
			wg.Add(1)
			go func(i int, p *Peer) {
				defer wg.Done()
				val := fmt.Sprintf("r%d-s%d", round, i)
				err := p.UpdateSource("T", func(tbl *reldb.Table) error {
					return tbl.Update(reldb.Row{reldb.I(int64(round % rows))},
						map[string]reldb.Value{workload.ManyShareCol(i): reldb.S(val)})
				})
				if err != nil {
					t.Errorf("round %d share %d: %v", round, i, err)
					return
				}
				res, err := p.UpdateView(ctx, h.shares[i], nil)
				if err == nil {
					err = p.WaitFinal(ctx, h.shares[i], res.Seq)
				}
				if err != nil {
					t.Errorf("round %d share %d: %v", round, i, err)
				}
			}(i, p)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Every ack follows its share's persist, so a final round is fully
		// on disk.
		live, err := h.hub.Source("T")
		if err != nil {
			t.Fatal(err)
		}
		img, err := store.Open(store.Options{FS: ffs.SurvivorAt(ffs.TotalBytes(), store.CrashTorn)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := img.LoadTable("T")
		img.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(live) {
			t.Fatalf("round %d: the recovered source table is older than the live one", round)
		}
	}
}

// TestProposeRoundPersistsAtomically: a ProposeUpdates round over four
// shares of one source is one store commit, so a crash anywhere inside
// it recovers every share at the old seq or every share at the new one,
// never a mix, with the source table and each view matching the seq the
// metadata names.
func TestProposeRoundPersistsAtomically(t *testing.T) {
	const shares, rows = 4, 4
	ffs := store.NewFaultFS()
	st, err := store.Open(store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := newStressHarness(t, shares, rows, func(name string, cfg *Config) {
		if name == "hub" {
			cfg.Store = st
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	oldSrc, err := h.hub.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	// One row, every share's column: all four views change.
	err = h.hub.UpdateSource("T", func(tbl *reldb.Table) error {
		set := make(map[string]reldb.Value, shares)
		for i := 0; i < shares; i++ {
			set[workload.ManyShareCol(i)] = reldb.S("round")
		}
		return tbl.Update(reldb.Row{reldb.I(0)}, set)
	})
	if err != nil {
		t.Fatal(err)
	}
	newSrc, err := h.hub.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	start := ffs.TotalBytes()
	res, err := h.hub.ProposeUpdates(ctx, h.shares)
	if err != nil || len(res) != shares {
		t.Fatalf("round proposed %d of %d shares: %v", len(res), shares, err)
	}
	end := ffs.TotalBytes()
	if b := ffs.WriteBoundaries(); b[len(b)-1] != start {
		t.Fatalf("the round took more than one store write (%d bytes)", end-start)
	}

	sweepRoundCrashes(t, ffs, h.shares, "h", start, end, oldSrc, newSrc)
}

// sweepRoundCrashes reopens a crash image of ffs at every byte of one
// round's store commit [start, end] (torn), and at end with unsynced
// bytes dropped. Every survivor must hold all shares at seq 0 or all at
// seq 1 — seq 1 only once the whole commit survives — with the source
// table "T" equal to oldSrc or newSrc to match, and each share's view
// (named share ID + viewSuffix) equal to its projection of that source.
func sweepRoundCrashes(t *testing.T, ffs *store.FaultFS, shares []string, viewSuffix string, start, end int64, oldSrc, newSrc *reldb.Table) {
	t.Helper()
	check := func(n int64, mode store.CrashMode) (seq uint64) {
		t.Helper()
		img, err := store.Open(store.Options{FS: ffs.SurvivorAt(n, mode)})
		if err != nil {
			t.Fatalf("crash at byte %d: reopen: %v", n, err)
		}
		defer img.Close()
		metas := img.Shares()
		seq = metas[shares[0]].Seq
		for _, id := range shares {
			if metas[id].Seq != seq {
				t.Fatalf("crash at byte %d: share %s at seq %d beside %s at seq %d",
					n, id, metas[id].Seq, shares[0], seq)
			}
		}
		want := map[uint64]*reldb.Table{0: oldSrc, 1: newSrc}[seq]
		if want == nil {
			t.Fatalf("crash at byte %d: shares at seq %d", n, seq)
		}
		src, err := img.LoadTable("T")
		if err != nil || !src.Equal(want) {
			t.Fatalf("crash at byte %d: source does not match the metadata's seq %d (err %v)", n, seq, err)
		}
		for i, id := range shares {
			view, err := img.LoadTable(id + viewSuffix)
			if err != nil {
				t.Fatalf("crash at byte %d: view %s: %v", n, id, err)
			}
			derived, err := bx.Project(id, []string{"k", workload.ManyShareCol(i)}, nil).Get(want)
			if err != nil || !view.Equal(derived) {
				t.Fatalf("crash at byte %d: view %s is not the seq %d view (err %v)", n, id, seq, err)
			}
		}
		return seq
	}
	for n := start; n <= end; n++ {
		want := uint64(0)
		if n == end {
			want = 1
		}
		if got := check(n, store.CrashTorn); got != want {
			t.Fatalf("torn at byte %d of [%d, %d]: recovered seq %d, want %d", n, start, end, got, want)
		}
	}
	if got := check(end, store.CrashDropUnsynced); got != 1 {
		t.Fatalf("the synced round recovered at seq %d, want 1", got)
	}
}

// TestProposeUpdatesIsOneGroupCommit: a source edit that changes eight
// shares is proposed as one batch submission carrying all eight request
// transactions, round after round — BatchTxs/BatchCommits is the batch
// size, not 1.
func TestProposeUpdatesIsOneGroupCommit(t *testing.T) {
	const shares, rows, rounds = 8, 8, 4
	h := newStressHarness(t, shares, rows)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := h.hub.Stats()
	for r := 0; r < rounds; r++ {
		err := h.hub.UpdateSource("T", func(tbl *reldb.Table) error {
			set := make(map[string]reldb.Value, shares)
			for i := 0; i < shares; i++ {
				set[workload.ManyShareCol(i)] = reldb.S(fmt.Sprintf("round-%d-%d", r, i))
			}
			return tbl.Update(reldb.Row{reldb.I(int64(r % rows))}, set)
		})
		if err != nil {
			t.Fatal(err)
		}
		props, err := h.hub.SyncShares(ctx, "T")
		if err != nil || len(props) != shares {
			t.Fatalf("round %d proposed %d of %d shares: %v", r, len(props), shares, err)
		}
		for _, pr := range props {
			if err := h.hub.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := h.hub.Stats()
	commits := after.BatchCommits - before.BatchCommits
	txs := after.BatchTxs - before.BatchTxs
	if commits != rounds || txs < shares*commits {
		t.Fatalf("%d rounds took %d batch submissions carrying %d txs, want %d carrying ≥ %d each",
			rounds, commits, txs, rounds, shares)
	}
}

// TestConcurrentPeerStress drives one hub peer from many goroutines at
// once — updaters (UpdateSource + UpdateView per share), fetchers
// (counterparty Fetch), and resyncers (hub and counterpart Resync) — and
// asserts every replica converges to the deterministic sequential
// outcome, verified by table hash equality on both sides of every share.
func TestConcurrentPeerStress(t *testing.T) {
	const (
		shares  = 4
		rows    = 8
		updates = 4
	)
	h := newStressHarness(t, shares, rows)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, shares*3)

	// Updater goroutines: one per share, writing its own column of a row
	// it owns, proposing, and waiting for finality before the next round.
	for i := 0; i < shares; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col := workload.ManyShareCol(i)
			id := h.shares[i]
			for u := 1; u <= updates; u++ {
				val := fmt.Sprintf("val-%d-%d", i, u)
				err := h.hub.UpdateSource("T", func(tbl *reldb.Table) error {
					return tbl.Update(reldb.Row{reldb.I(int64(u % rows))}, map[string]reldb.Value{col: reldb.S(val)})
				})
				if err != nil {
					errCh <- fmt.Errorf("update %s: %w", id, err)
					return
				}
				res, err := h.hub.UpdateView(ctx, id, nil)
				if err != nil {
					errCh <- fmt.Errorf("propose %s round %d: %w", id, u, err)
					return
				}
				if err := h.hub.WaitFinal(ctx, id, res.Seq); err != nil {
					errCh <- fmt.Errorf("waitfinal %s seq %d: %w", id, res.Seq, err)
					return
				}
			}
		}(i)
	}

	// Fetcher goroutines: counterparties pull payloads over the data
	// channel while updates are in flight.
	stop := make(chan struct{})
	for i := 0; i < shares; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fctx, fcancel := context.WithTimeout(ctx, 10*time.Second)
				_, _, _, err := h.partners[i].StructuralSync(fctx, h.hub.Address(), h.shares[i], 0)
				fcancel()
				// A walk the hub's next update overtakes aborts, leaving
				// nothing changed; the loop asks again.
				if err != nil && !errors.Is(err, ErrSyncAborted) {
					errCh <- fmt.Errorf("sync %s: %w", h.shares[i], err)
					return
				}
			}
		}(i)
	}

	// Resync goroutines: the hub and one counterpart reconcile in a loop,
	// racing the event-loop applies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
			if err := h.hub.Resync(rctx); err != nil {
				t.Logf("hub resync (tolerated): %v", err)
			}
			if err := h.partners[0].Resync(rctx); err != nil {
				t.Logf("partner resync (tolerated): %v", err)
			}
			rcancel()
			time.Sleep(time.Millisecond)
		}
	}()

	// Actively wait for every updater's final sequence to land.
	deadline := time.After(90 * time.Second)
	for i := 0; i < shares; i++ {
		for {
			info, err := h.hub.ShareInfo(h.shares[i])
			if err != nil {
				t.Fatal(err)
			}
			if info.AppliedSeq >= uint64(updates) {
				break
			}
			select {
			case err := <-errCh:
				t.Fatal(err)
			case <-deadline:
				t.Fatalf("share %s stuck at seq %d", h.shares[i], info.AppliedSeq)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Let the counterparties settle, then force reconciliation.
	for _, p := range h.partners {
		if err := p.Resync(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The sequential outcome: each column's last write is val-<i>-<updates>
	// on row updates%rows, with earlier rounds' rows holding their last
	// values — deterministic because each goroutine owned its column and
	// rounds were serialized by WaitFinal.
	expected := reldb.MustNewTable(stressSchema("T", shares))
	for r := 0; r < rows; r++ {
		row := reldb.Row{reldb.I(int64(r))}
		for i := 0; i < shares; i++ {
			last := "init"
			for u := 1; u <= updates; u++ {
				if u%rows == r {
					last = fmt.Sprintf("val-%d-%d", i, u)
				}
			}
			row = append(row, reldb.S(last))
		}
		expected.MustInsert(row)
	}
	hubSrc, err := h.hub.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if hubSrc.Hash() != expected.Hash() {
		t.Fatalf("hub source diverged from sequential result:\nhave %v\nwant %v", hubSrc.RowsCanonical(), expected.RowsCanonical())
	}

	// Hash equality across every share: hub view replica == counterpart
	// view replica == lens of the converged source.
	for i, id := range h.shares {
		hv, err := h.hub.View(id)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := h.partners[i].View(id)
		if err != nil {
			t.Fatal(err)
		}
		if hv.Hash() != pv.Hash() {
			t.Fatalf("share %s replicas diverged", id)
		}
		wantView, err := bx.Project(id, []string{"k", workload.ManyShareCol(i)}, nil).Get(expected)
		if err != nil {
			t.Fatal(err)
		}
		// Content comparison, not hash: the stored replicas carry the
		// share's priority seed, so their Merkle roots differ from an
		// unseeded rebuild of the same contents by design.
		if !hv.Equal(wantView) {
			t.Fatalf("share %s converged to a non-sequential state", id)
		}
		// The counterpart's own source must equal its view (its lens is
		// the identity projection of its two columns).
		psrc, err := h.partners[i].Source("T")
		if err != nil {
			t.Fatal(err)
		}
		if !psrc.Equal(pv) {
			t.Fatalf("share %s counterpart source/view misaligned", id)
		}
	}
}
