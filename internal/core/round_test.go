package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// hubRound edits row r of the hub's source in every share's column and
// proposes all shares as one ProposeUpdates round, returning its results.
func hubRound(t *testing.T, ctx context.Context, h *stressHarness, r int) []ProposalResult {
	t.Helper()
	err := h.hub.UpdateSource("T", func(tbl *reldb.Table) error {
		set := make(map[string]reldb.Value, len(h.shares))
		for i := range h.shares {
			set[workload.ManyShareCol(i)] = reldb.S(fmt.Sprintf("round-%d-%d", r, i))
		}
		return tbl.Update(reldb.Row{reldb.I(int64(r))}, set)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.hub.ProposeUpdates(ctx, h.shares)
	if err != nil || len(res) != len(h.shares) {
		t.Fatalf("round %d proposed %d of %d shares: %v", r, len(res), len(h.shares), err)
	}
	return res
}

// TestReceiveRoundIsOneGroupCommit: a peer bound to eight shares with one
// counterparty receives each eight-share ProposeUpdates round as one
// receive round — one store commit for the eight replicas and one batch
// submission carrying the eight acks — round after round.
func TestReceiveRoundIsOneGroupCommit(t *testing.T) {
	const shares, rows, rounds = 8, 8, 4
	st := store.OpenMemory()
	defer st.Close()
	h := newHubHarness(t, hubOpts{shares: shares, partners: 1, rows: rows, tweak: func(name string, cfg *Config) {
		if name != "hub" {
			cfg.Store = st
		}
	}})
	recv := h.partners[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before, commits := recv.Stats(), st.Stats().Commits
	for r := 0; r < rounds; r++ {
		for _, pr := range hubRound(t, ctx, h, r) {
			if err := h.hub.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every ack follows its round's persist and batch submission, so the
	// counters are complete once the rounds are final.
	after := recv.Stats()
	batches, txs := after.BatchCommits-before.BatchCommits, after.BatchTxs-before.BatchTxs
	if batches != rounds || txs < shares*batches {
		t.Fatalf("%d rounds were acked in %d batch submissions carrying %d txs, want %d carrying ≥ %d each",
			rounds, batches, txs, rounds, shares)
	}
	if got := st.Stats().Commits - commits; got != rounds {
		t.Fatalf("%d rounds took %d store commits on the receiver, want %d", rounds, got, rounds)
	}
}

// TestReceiveRoundPersistsAtomically: the receiving side of a four-share
// round over one source is one store commit, so a crash anywhere inside
// it recovers every share at the old seq or every share at the new one,
// never a mix, with the source table and each view matching the seq the
// metadata names.
func TestReceiveRoundPersistsAtomically(t *testing.T) {
	const shares, rows = 4, 4
	ffs := store.NewFaultFS()
	st, err := store.Open(store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := newHubHarness(t, hubOpts{shares: shares, partners: 1, rows: rows, tweak: func(name string, cfg *Config) {
		if name != "hub" {
			cfg.Store = st
		}
	}})
	recv := h.partners[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	oldSrc, err := recv.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	start := ffs.TotalBytes()
	for _, pr := range hubRound(t, ctx, h, 0) {
		if err := h.hub.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatal(err)
		}
	}
	end := ffs.TotalBytes()
	if b := ffs.WriteBoundaries(); end == start || b[len(b)-1] != start {
		t.Fatalf("the receive round took %d bytes in more or fewer than one store write", end-start)
	}
	newSrc, err := recv.Source("T")
	if err != nil {
		t.Fatal(err)
	}

	sweepRoundCrashes(t, ffs, h.shares, "p", start, end, oldSrc, newSrc)
}

// TestReceiveRoundRejectsOnlyFailedPut: one share of a four-share round
// cannot be embedded (the receiver binds it over its own table, whose
// row the update edits is gone). That share is rejected on-chain, in the
// same batch as the other three acks, and its proposer rolls back; the
// other three finalize.
func TestReceiveRoundRejectsOnlyFailedPut(t *testing.T) {
	const shares, rows = 4, 4
	h := newHubHarness(t, hubOpts{shares: shares, partners: 1, rows: rows, source: func(i int, p *Peer) string {
		if i != 0 {
			return "T"
		}
		src, err := p.Source("T")
		if err == nil {
			var u *reldb.Table
			if u, err = src.Project("U", []string{"k", workload.ManyShareCol(0)}, nil); err == nil {
				p.DB().PutTable(u)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return "U"
	}})
	recv := h.partners[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := recv.UpdateSource("U", func(tbl *reldb.Table) error { return tbl.Delete(reldb.Row{reldb.I(0)}) }); err != nil {
		t.Fatal(err)
	}

	before := recv.Stats()
	for _, pr := range hubRound(t, ctx, h, 0)[1:] {
		if err := h.hub.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatal(err)
		}
	}
	err := h.hub.awaitBlocks(ctx, "S0 resolved", func() (bool, error) {
		meta, err := h.hub.Meta("S0")
		return err == nil && meta.Pending == nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta, _ := h.hub.Meta("S0"); meta.Seq != 0 {
		t.Fatalf("S0 finalized at seq %d; its put must have failed on the receiver", meta.Seq)
	}
	after := recv.Stats()
	if after.BatchCommits-before.BatchCommits != 1 || after.BatchTxs-before.BatchTxs != shares {
		t.Fatalf("the round sent %d batches carrying %d txs, want one carrying three acks and the rejection",
			after.BatchCommits-before.BatchCommits, after.BatchTxs-before.BatchTxs)
	}
	for i, id := range h.shares {
		info, err := recv.ShareInfo(id)
		if want := uint64(min(i, 1)); err != nil || info.AppliedSeq != want {
			t.Fatalf("receiver holds %s at seq %d (err %v), want %d", id, info.AppliedSeq, err, want)
		}
	}
	// Both entries are recorded once their peer has seen the rejection
	// commit, which may trail the chain state checked above.
	waitEntry := func(p *Peer, kind string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			for _, e := range p.History() {
				if e.ShareID == "S0" && e.Kind == kind {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s recorded no %q entry for S0", p.Name(), kind)
			}
		}
	}
	waitEntry(recv, "rejected")
	waitEntry(h.hub, "rolled-back")
	if info, _ := h.hub.ShareInfo("S0"); info.AppliedSeq != 0 {
		t.Fatalf("the hub holds S0 at seq %d after the rollback, want 0", info.AppliedSeq)
	}
}

// gatedTransport holds the first request's response until release is
// closed, after signalling entered: a receive round fetching through it
// holds its shares' locks for as long as the test wants.
type gatedTransport struct {
	p2p.Transport
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedTransport) Request(ctx context.Context, to string, msg p2p.Message) (p2p.Message, error) {
	resp, err := g.Transport.Request(ctx, to, msg)
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return resp, err
}

// TestRemovalWaitsForRound: the owner removes a share while the
// receiver's round holds it (its fetch answered, its install not yet
// done). The removal waits for the round, so the share ends unbound and
// its last durable record is the tombstone, not the round's replica.
func TestRemovalWaitsForRound(t *testing.T) {
	st := store.OpenMemory()
	defer st.Close()
	gate := &gatedTransport{entered: make(chan struct{}), release: make(chan struct{})}
	h := newHubHarness(t, hubOpts{shares: 1, partners: 1, rows: 4, tweak: func(name string, cfg *Config) {
		if name != "hub" {
			gate.Transport = cfg.Transport
			cfg.Transport, cfg.Store = gate, st
		}
	}})
	recv := h.partners[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hubRound(t, ctx, h, 0)
	select {
	case <-gate.entered:
	case <-ctx.Done():
		t.Fatal("the receiver never fetched the update")
	}
	if err := h.hub.RemoveShare(ctx, "S0"); err != nil {
		t.Fatal(err)
	}
	// The removal's event is on the receiver's subscription once the node
	// has finished publishing its block (BlockApplied waits for the lock
	// publish holds). Once the subscription is empty again the dispatcher
	// has taken the event and waits in unbind for the round's lock.
	h.node.BlockApplied()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		recv.mu.Lock()
		queued := len(recv.inbox)
		recv.mu.Unlock()
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the receiver's dispatcher never took the removal")
		}
	}
	close(gate.release)

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := recv.ShareInfo("S0"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the receiver never unbound the removed share")
		}
	}
	recv.Stop() // joins the round
	if sm, ok := st.Shares()["S0"]; !ok || sm.View != "" {
		t.Fatalf("the removed share's durable record is %+v, want the tombstone", sm)
	}
	if _, err := recv.DB().Table("S0p"); err == nil {
		t.Fatal("the removed share's view is still in the receiver's database")
	}
}

// TestRestoreRefusesDamagedSource: a persisted source table that fails
// to load makes AttachShare fail with an error naming the table and the
// load error. The share stays unbound and the local source is not
// replaced: nothing is bound over seeded data.
func TestRestoreRefusesDamagedSource(t *testing.T) {
	fs := store.NewMemFS()
	st, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := p2p.NewMemNetwork()
	h := newSyncHarnessTweak(t, 8, mem.Endpoint("A"), mem.Endpoint("B"), func(name string, cfg *Config) {
		if name == "B" {
			cfg.Store = st
		}
	})

	// A source-only commit whose node records are all new: a local edit
	// the view does not carry yet.
	err = h.b.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S("local")})
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files (%v)", err)
	}
	seg := names[len(names)-1]
	f, err := fs.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := f.Size()
	if err := st.Commit(func(b *store.Batch) error {
		src, err := h.b.Source("T")
		if err != nil {
			return err
		}
		return b.PutTable(src)
	}); err != nil {
		t.Fatal(err)
	}
	// Damage the commit's first record, a node of the new source, under
	// the open store: its index still points there.
	size, _ := f.Size()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	data[start] ^= 0xff
	w, err := fs.OpenAppend(seg)
	if err == nil {
		err = fs.Truncate(seg, start)
	}
	if err == nil {
		_, err = w.Write(data[start:])
	}
	if err != nil {
		t.Fatal(err)
	}

	// Restart the binding: forget it in memory, then attach again.
	h.b.mu.Lock()
	delete(h.b.shares, "S")
	h.b.mu.Unlock()
	lens := bx.Project("Sb", []string{"k", "v"}, nil).WithInsert(bx.PolicyApply, nil).WithDelete(bx.PolicyApply)
	err = h.b.AttachShare("S", "T", lens, "Sb")
	if err == nil || !strings.Contains(err.Error(), "source table T failed to load: ") || errors.Unwrap(err) == nil {
		t.Fatalf("AttachShare over a damaged source: %v; want an error naming table T and its load error", err)
	}
	if _, err := h.b.share("S"); err == nil {
		t.Fatal("share bound despite the damaged source")
	}
	src, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if row, ok := src.Get(reldb.Row{reldb.I(1)}); !ok || row[1].String() != "local" {
		t.Fatalf("local source replaced: row 1 = %v", row)
	}
}
