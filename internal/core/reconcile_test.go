package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medshare/internal/clock"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// TestViewEditReachesSiblingPartner: an entry-level edit through share A
// writes the hub's source, so the hub re-derives B, which shows the same
// column, and B's partner ends up with the edit.
func TestViewEditReachesSiblingPartner(t *testing.T) {
	h := newPairHarness(t, true, nil)
	metaB, err := h.hub.Meta("B")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.hub.UpdateView(h.ctx, "A", setCol(3, "y", "edited-through-A"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.hub.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	if err := h.pb.WaitFinal(h.ctx, "B", metaB.Seq+1); err != nil {
		t.Fatal(err)
	}
	view, err := h.pb.View("B")
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, view, 3, "y"); got != "edited-through-A" {
		t.Fatalf("pb's replica of B shows y = %q on row 3, want the edit made through A", got)
	}
}

// TestRejectedEditNotReproposed: a counterparty rejects the hub's insert
// on A, and A rolls back with the insert still in the hub's source. Writes
// through sibling share B then keep marking A, and the reconciler must
// not propose A again: that would re-propose the rejected edit. A user's
// proposal on A that commits releases the hold.
func TestRejectedEditNotReproposed(t *testing.T) {
	h := newPairHarness(t, true, nil)
	// pa's lens forbids inserts.
	if err := h.hub.UpdateSource("T", func(tb *reldb.Table) error {
		return tb.Insert(reldb.Row{reldb.I(100), reldb.S("x"), reldb.S("y"), reldb.S("z")})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.hub.UpdateView(h.ctx, "A", nil); err != nil {
		t.Fatal(err)
	}
	entriesOnA := func() (n, rolledBack int) {
		for _, e := range h.hub.History() {
			if e.ShareID == "A" {
				n++
				if e.Kind == "rolled-back" {
					rolledBack++
				}
			}
		}
		return n, rolledBack
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, rb := entriesOnA(); rb == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the rejected proposal was never rolled back")
		}
	}
	before, _ := entriesOnA()
	metaA, err := h.hub.Meta("A")
	if err != nil {
		t.Fatal(err)
	}

	// Sibling writes through B on the column A shows, for 20 blocks.
	head, _ := h.node.Head()
	start := head.Header.Height
	for i := int64(0); ; i++ {
		if head, _ := h.node.Head(); head.Header.Height >= start+20 {
			break
		}
		res, err := h.hub.UpdateView(h.ctx, "B", setCol(i%8, "y", fmt.Sprintf("via-B-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.hub.WaitFinal(h.ctx, "B", res.Seq); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := h.hub.Meta("A")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != metaA.Seq || meta.Pending != nil {
		t.Fatalf("A moved while held: seq %d -> %d, pending %+v", metaA.Seq, meta.Seq, meta.Pending)
	}
	if after, _ := entriesOnA(); after != before {
		t.Fatalf("the hub acted on held share A: %d history entries -> %d", before, after)
	}

	// The user drops the rejected row and proposes: the hold is released.
	if err := h.hub.UpdateSource("T", func(tb *reldb.Table) error { return tb.Delete(reldb.Row{reldb.I(100)}) }); err != nil {
		t.Fatal(err)
	}
	res, err := h.hub.UpdateView(h.ctx, "A", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.pa.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	// The next sibling write is re-derived into A again.
	resB, err := h.hub.UpdateView(h.ctx, "B", setCol(1, "y", "after-the-hold"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.hub.WaitFinal(h.ctx, "B", resB.Seq); err != nil {
		t.Fatal(err)
	}
	if err := h.pa.WaitFinal(h.ctx, "A", res.Seq+1); err != nil {
		t.Fatal(err)
	}
	view, err := h.pa.View("A")
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, view, 1, "y"); got != "after-the-hold" {
		t.Fatalf("pa's replica of A shows y = %q on row 1 after the hold was released", got)
	}
}

// TestConcurrentRestoredAttachBindsOnce: after a restart, concurrent
// AttachShare calls of one share over its restored replica bind it
// exactly once; every other call gets ErrShareBound.
func TestConcurrentRestoredAttachBindsOnce(t *testing.T) {
	mem := p2p.NewMemNetwork()
	fs := store.NewMemFS()
	h := newSyncHarnessTweak(t, 16, mem.Endpoint("A"), mem.Endpoint("B"), func(name string, cfg *Config) {
		if name == "B" {
			withStore(t, cfg, fs)
		}
	})
	image := fs.Clone()
	const callers = 8
	errs := make(chan error, callers)
	h.b = restartPeer(t, h.b, image, syncTestTable(16), func(b *Peer) {
		var start sync.WaitGroup
		start.Add(1)
		for i := 0; i < callers; i++ {
			go func() {
				start.Wait()
				errs <- b.AttachShare("S", "T", syncLens("Sb"), "Sb")
			}()
		}
		start.Done()
	})
	bound := 0
	for i := 0; i < callers; i++ {
		switch err := <-errs; {
		case err == nil:
			bound++
		case !errors.Is(err, ErrShareBound):
			t.Fatalf("attach: %v, want nil or ErrShareBound", err)
		}
	}
	restored := 0
	for _, e := range h.b.History() {
		if e.ShareID == "S" && e.Kind == "restored" {
			restored++
		}
	}
	if bound != 1 || restored != 1 {
		t.Fatalf("%d of %d concurrent attaches bound, %d restored entries; want exactly one", bound, callers, restored)
	}
}

// TestShareAttachedAfterSourceMoved: B restarts the way medshared does —
// started first, shares attached after — and its repair loop applies a
// pending update on S before S2 is attached. S2's restored replica was
// derived from the source before that update, so binding it must
// re-derive it: the update reaches S2 and A's replica of it.
func TestShareAttachedAfterSourceMoved(t *testing.T) {
	mem := p2p.NewMemNetwork()
	fs := store.NewMemFS()
	h := newSyncHarnessTweak(t, 16, mem.Endpoint("A"), mem.Endpoint("B"), func(name string, cfg *Config) {
		cfg.ResyncInterval = 25 * time.Millisecond
		if name == "B" {
			withStore(t, cfg, fs)
		}
	})
	registerSecondShare(t, h)
	image := fs.Clone()
	h.b.Stop()

	if err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S("moved")})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := h.a.UpdateView(h.ctx, "S", nil)
	if err != nil {
		t.Fatal(err)
	}
	h.b = restartPeer(t, h.b, image, syncTestTable(16), func(b *Peer) {
		if err := b.AttachShare("S", "T", syncLens("Sb"), "Sb"); err != nil {
			t.Fatal(err)
		}
		err := b.awaitBlocks(h.ctx, "B applying S", func() (bool, error) {
			info, err := b.ShareInfo("S")
			return err == nil && info.AppliedSeq >= res.Seq, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AttachShare("S2", "T", syncLens("S2b"), "S2b"); err != nil {
			t.Fatal(err)
		}
	})
	waitConverged(t, h, "S", res.Seq)
	waitConverged(t, h, "S2", 1)
	view, err := h.a.View("S2")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := view.Value(reldb.Row{reldb.I(1)}, "v"); err != nil || v.String() != "moved" {
		t.Fatalf("A's replica of S2 shows v = %v (%v) on row 1, want the update applied through S", v, err)
	}
}

// TestHistoryKeepsLatestEntries: the local activity log keeps its last
// historyCap entries, oldest first.
func TestHistoryKeepsLatestEntries(t *testing.T) {
	p := &Peer{cfg: Config{Clock: clock.Real{}}}
	const n = 5000
	for i := 0; i < n; i++ {
		p.record(HistoryEntry{Seq: uint64(i)})
	}
	h := p.History()
	if len(h) != historyCap {
		t.Fatalf("History() has %d entries, want %d", len(h), historyCap)
	}
	for i, e := range h {
		if want := uint64(n - historyCap + i); e.Seq != want {
			t.Fatalf("History()[%d] is entry %d, want %d", i, e.Seq, want)
		}
	}
}

// TestRejectionBeforeFinalizeKeepsHold: the counterparty's rejection of
// the hub's proposal on A reaches the hub before the proposer's own
// finalize runs. The rejection rolls A back and holds it; the finalize
// that follows must keep the hold, so a write through sibling B makes no
// second proposal on A.
func TestRejectionBeforeFinalizeKeepsHold(t *testing.T) {
	h := newPairHarness(t, true, nil)
	if err := h.hub.UpdateSource("T", func(tb *reldb.Table) error {
		return tb.Insert(reldb.Row{reldb.I(100), reldb.S("x"), reldb.S("y"), reldb.S("z")})
	}); err != nil {
		t.Fatal(err)
	}
	metaA, err := h.hub.Meta("A")
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.hub.lockShare("A")
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.hub.stageProposal(s, false)
	if err != nil {
		s.opMu.Unlock()
		t.Fatal(err)
	}
	h.hub.onUpdateRejected(sharereg.EventPayload{ShareID: "A", Seq: st.baseSeq + 1, From: h.pa.Address(), Kind: "rejected"})
	h.hub.finalizeProposal(st)
	h.hub.persistShares(s)
	s.opMu.Unlock()

	s.stMu.Lock()
	held, applied := s.st.held, s.st.applied
	s.stMu.Unlock()
	if !held || applied != st.baseSeq {
		t.Fatalf("after the rejection and the finalize A is held %v at seq %d, want held at %d", held, applied, st.baseSeq)
	}
	var before int
	for _, e := range h.hub.History() {
		if e.ShareID == "A" {
			before++
		}
	}
	for i := int64(0); i < 4; i++ {
		res, err := h.hub.UpdateView(h.ctx, "B", setCol(i, "y", fmt.Sprintf("via-B-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.pb.WaitFinal(h.ctx, "B", res.Seq); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := h.hub.Meta("A")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != metaA.Seq || meta.Pending != nil {
		t.Fatalf("A was proposed while held: seq %d -> %d, pending %+v", metaA.Seq, meta.Seq, meta.Pending)
	}
	var after int
	for _, e := range h.hub.History() {
		if e.ShareID == "A" {
			after++
		}
	}
	if after != before {
		t.Fatalf("the hub acted on held share A: %d history entries -> %d", before, after)
	}
}

// TestForgedColumnsRejected: the hub may no longer write x on A, stages an
// honest edit of x, and submits a request that declares only y, which the
// contract admits. The counterparty must refuse to install a change to a
// column the request does not declare: its source keeps x, and the
// rejection rolls the hub back and holds A.
func TestForgedColumnsRejected(t *testing.T) {
	h := newPairHarness(t, true, nil)
	if err := h.hub.SetPermission(h.ctx, "A", "x", []identity.Address{h.pa.Address()}); err != nil {
		t.Fatal(err)
	}
	if err := h.hub.UpdateSource("T", setCol(3, "x", "forged")); err != nil {
		t.Fatal(err)
	}
	s, err := h.hub.lockShare("A")
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.hub.stageProposal(s, false)
	if err != nil {
		s.opMu.Unlock()
		t.Fatal(err)
	}
	view, err := h.hub.View("A")
	if err != nil {
		s.opMu.Unlock()
		t.Fatal(err)
	}
	st.cols = []string{"y"}
	st.tx, err = h.hub.buildTx(sharereg.FnRequestUpdate, "A", sharereg.UpdateArgs{
		ShareID: "A", Cols: st.cols, PayloadHash: hashHex(view), Kind: st.kind, BaseSeq: st.baseSeq,
	})
	if err == nil {
		_, err = h.hub.submitAndWait(h.ctx, st.tx)
	}
	if err != nil {
		h.hub.rollbackProposal(st, err)
		s.opMu.Unlock()
		t.Fatalf("the forged request was not admitted: %v", err)
	}
	h.hub.finalizeProposal(st)
	h.hub.persistShares(s)
	s.opMu.Unlock()

	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		s.stMu.Lock()
		held, applied := s.st.held, s.st.applied
		s.stMu.Unlock()
		if held && applied == st.baseSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the hub is held %v at seq %d, want rolled back to %d and held", held, applied, st.baseSeq)
		}
	}
	src, err := h.pa.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, src, 3, "x"); got != "x3" {
		t.Fatalf("pa's source reads x = %q on row 3, want the undeclared change refused", got)
	}
	if info, _ := h.pa.ShareInfo("A"); info.AppliedSeq != st.baseSeq {
		t.Fatalf("pa applied A at seq %d, want %d", info.AppliedSeq, st.baseSeq)
	}
}
