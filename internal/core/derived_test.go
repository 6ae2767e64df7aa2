package core

import (
	"context"
	"fmt"
	"sync/atomic"
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
)

// countingLens counts whole-source gets; every other lens method is the
// wrapped lens's own.
type countingLens struct {
	bx.Lens
	gets atomic.Int64
}

func (c *countingLens) Get(src *reldb.Table) (*reldb.Table, error) {
	c.gets.Add(1)
	return c.Lens.Get(src)
}

// pairHarness is a hub whose source T(k, x, y, z) backs two shares with
// one column (y) visible to both: A = π(k,x,y) with partner pa, and
// B = π(k,y,z) of the rows k < 8 with partner pb. The hub's lenses count
// their gets.
type pairHarness struct {
	ctx         context.Context
	node        *node.Node
	mem         *p2p.MemNetwork
	dir         *Directory
	hubID       *identity.Identity
	hub, pa, pb *Peer
	lensA       *countingLens
	lensB       *countingLens
}

const pairRows = 16

func pairTable(name string, cols ...string) *reldb.Table {
	s := reldb.Schema{Name: name, Key: []string{"k"}, Columns: []reldb.Column{{Name: "k", Type: reldb.KindInt}}}
	for _, c := range cols {
		s.Columns = append(s.Columns, reldb.Column{Name: c, Type: reldb.KindString})
	}
	t := reldb.MustNewTable(s)
	for i := int64(0); i < pairRows; i++ {
		r := reldb.Row{reldb.I(i)}
		for _, c := range cols {
			r = append(r, reldb.S(fmt.Sprintf("%s%d", c, i)))
		}
		t.MustInsert(r)
	}
	return t
}

func hubLensA() *countingLens {
	return &countingLens{Lens: bx.Project("Ah", []string{"k", "x", "y"}, nil)}
}

func hubLensB() *countingLens {
	return &countingLens{Lens: bx.Compose(
		bx.Select("Bsel", reldb.Cmp("k", reldb.OpLt, reldb.I(8))),
		bx.Project("Bh", []string{"k", "y", "z"}, nil),
	)}
}

// newPairHarness builds the network. The hub's event loop runs only when
// startHub is set; otherwise the test applies incoming updates itself, in
// the order it wants. hubStore, when non-nil, makes the hub durable.
func newPairHarness(t *testing.T, startHub bool, hubStore *store.Store) *pairHarness {
	t.Helper()
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "pair-test",
		Identity:      nid,
		Engine:        consensus.NewPoA(false, nid.Address()),
		Registry:      contract.NewRegistry(sharereg.New()),
		BlockInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	n.Start(ctx)
	t.Cleanup(n.Stop)

	h := &pairHarness{
		ctx: ctx, node: n, mem: p2p.NewMemNetwork(), dir: NewDirectory(),
		hubID: identity.MustNew("hub"), lensA: hubLensA(), lensB: hubLensB(),
	}
	h.hub = h.newPeer(t, h.hubID, pairTable("T", "x", "y", "z"), hubStore, startHub)
	h.pa = h.newPeer(t, identity.MustNew("pa"), pairTable("T", "x", "y"), nil, true)
	pbSrc := pairTable("T", "y", "z")
	for k := int64(8); k < pairRows; k++ {
		if err := pbSrc.Delete(reldb.Row{reldb.I(k)}); err != nil {
			t.Fatal(err)
		}
	}
	h.pb = h.newPeer(t, identity.MustNew("pb"), pbSrc, nil, true)

	for _, sh := range []struct {
		id      string
		lens    bx.Lens
		partner *Peer
		pLens   bx.Lens
		cols    []string
	}{
		{"A", h.lensA, h.pa, bx.Project("Ap", []string{"k", "x", "y"}, nil), []string{"k", "x", "y"}},
		{"B", h.lensB, h.pb, bx.Project("Bp", []string{"k", "y", "z"}, nil), []string{"y", "z"}},
	} {
		both := []identity.Address{h.hub.Address(), sh.partner.Address()}
		perm := map[string][]identity.Address{}
		for _, c := range sh.cols {
			perm[c] = both
		}
		err := h.hub.RegisterShare(ctx, RegisterShareArgs{
			ID: sh.id, SourceTable: "T", Lens: sh.lens, ViewName: sh.id + "h", Peers: both, WritePerm: perm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.partner.AttachShare(sh.id, "T", sh.pLens, sh.id+"p"); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *pairHarness) newPeer(t *testing.T, id *identity.Identity, src *reldb.Table, st *store.Store, start bool) *Peer {
	t.Helper()
	db := reldb.NewDatabase(id.Name)
	db.PutTable(src)
	p, err := NewPeer(Config{
		Identity: id, DB: db, Node: h.node,
		Transport: h.mem.Endpoint(id.Name), Directory: h.dir, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		p.Start()
		t.Cleanup(p.Stop)
	}
	return p
}

func setCol(k int64, col, val string) func(*reldb.Table) error {
	return func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(k)}, map[string]reldb.Value{col: reldb.S(val)})
	}
}

// hubEdit edits the hub's source and proposes on one share, to finality.
func (h *pairHarness) hubEdit(t *testing.T, share string, k int64, col, val string) ProposalResult {
	t.Helper()
	if err := h.hub.UpdateSource("T", setCol(k, col, val)); err != nil {
		t.Fatal(err)
	}
	res, err := h.hub.UpdateView(h.ctx, share, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.hub.WaitFinal(h.ctx, share, res.Seq); err != nil {
		t.Fatal(err)
	}
	return res
}

// partnerEdit has a partner edit its view and propose; the update stays
// pending until the hub applies it.
func (h *pairHarness) partnerEdit(t *testing.T, p *Peer, share string, k int64, col, val string) ProposalResult {
	t.Helper()
	res, err := p.UpdateView(h.ctx, share, setCol(k, col, val))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hubApplyPending is the hub's applyIncoming without the cascade: embed
// the share's pending update and commit the ack.
func (h *pairHarness) hubApplyPending(t *testing.T, share string) {
	t.Helper()
	meta, err := h.hub.Meta(share)
	if err != nil || meta.Pending == nil {
		t.Fatalf("no pending update on %s (%v)", share, err)
	}
	s, err := h.hub.share(share)
	if err != nil {
		t.Fatal(err)
	}
	pd := meta.Pending
	it := &roundItem{s: s, req: sharereg.EventPayload{ShareID: share, Seq: pd.Seq, From: pd.From, PayloadHash: pd.PayloadHash, Cols: pd.Cols}}
	s.opMu.Lock()
	err = h.hub.embedIncoming(h.ctx, it)
	s.opMu.Unlock()
	if err != nil || it.tx == nil || it.putErr != nil {
		t.Fatalf("embed %s seq %d: ack %v, put %v, err %v", share, pd.Seq, it.tx, it.putErr, err)
	}
	h.hub.persistShares(s)
	if _, err := h.hub.submitAndWait(h.ctx, it.tx); err != nil {
		t.Fatal(err)
	}
}

// checkViewIsGet asserts the hub's replica of a share is exactly what a
// whole-source get would derive, row tree shape included.
func (h *pairHarness) checkViewIsGet(t *testing.T, share string, counted *countingLens) {
	t.Helper()
	lens := counted.Lens
	src, err := h.hub.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	view, err := h.hub.View(share)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lens.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := h.hub.share(share)
	if want = s.seedView(want); !view.Equal(want) || view.Hash() != want.Hash() {
		t.Fatalf("replica of %s is not the lens's view of the source", share)
	}
}

func cell(t *testing.T, tbl *reldb.Table, k int64, col string) string {
	t.Helper()
	v, err := tbl.Value(reldb.Row{reldb.I(k)}, col)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := v.Str()
	return s
}

// TestSiblingInterleaveKeepsUnreflectedEdit: share B embeds an incoming
// change to the column both shares see, then share A embeds an incoming
// change of its own before B's cascade has proposed on A. A's replica
// does not show B's change yet, so the proposal the cascade makes on A
// must still find it — which it does not if A's derived pair is advanced
// to the put's output as if the replica reflected that whole source.
//
// A's change lands on another row than B's. On the same row there is
// nothing left to find: ProjectLens.PutDelta writes every projected column
// of a row it touches from the view row, which still carries the old
// shared value, so the source itself loses B's edit before any get runs.
func TestSiblingInterleaveKeepsUnreflectedEdit(t *testing.T) {
	h := newPairHarness(t, false, nil)
	// Each share's first proposal takes the full get and leaves a pair.
	h.hubEdit(t, "A", 0, "x", "warm")
	h.hubEdit(t, "B", 0, "z", "warm")
	full := h.hub.Stats().FullGets

	h.partnerEdit(t, h.pb, "B", 1, "y", "y-from-B")
	h.hubApplyPending(t, "B")
	h.partnerEdit(t, h.pa, "A", 2, "x", "x-from-A")
	h.hubApplyPending(t, "A")

	res, err := h.hub.UpdateView(h.ctx, "A", nil)
	if err != nil {
		t.Fatalf("the cascade's proposal on A lost B's change: %v", err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "y" {
		t.Fatalf("proposal on A changed %v, want [y]", res.Cols)
	}
	view, err := h.hub.View("A")
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, view, 1, "y"); got != "y-from-B" {
		t.Fatalf("A shows y = %q on row 1, want B's change", got)
	}
	if got := cell(t, view, 2, "x"); got != "x-from-A" {
		t.Fatalf("A shows x = %q on row 2, want A's own incoming change", got)
	}
	h.checkViewIsGet(t, "A", h.lensA)
	if st := h.hub.Stats(); st.FullGets != full {
		t.Fatalf("the interleave fell back to a full get (%d -> %d): the pair was dropped, not advanced", full, st.FullGets)
	}
	if err := h.hub.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	pv, err := h.pa.View("A")
	if err != nil {
		t.Fatal(err)
	}
	if !pv.Equal(view) {
		t.Fatal("partner's replica of A did not converge")
	}
}

// expectGets asserts how many whole-source gets the hub's two lenses made
// since the last call, and that Stats counted the same number of full
// stagings.
func (h *pairHarness) expectGets(t *testing.T, what string, seen *[3]int64, wantA, wantB int64) {
	t.Helper()
	a, b, full := h.lensA.gets.Load(), h.lensB.gets.Load(), int64(h.hub.Stats().FullGets)
	if a-seen[0] != wantA || b-seen[1] != wantB || full-seen[2] != wantA+wantB {
		t.Fatalf("%s: Lens.Get calls A %d B %d, FullGets +%d; want A %d B %d", what, a-seen[0], b-seen[1], full-seen[2], wantA, wantB)
	}
	*seen = [3]int64{a, b, full}
}

// waitStaged waits until the hub has staged n more proposals or probes
// (the reconciler runs beside the ack that finalizes the update causing
// it).
func (h *pairHarness) waitStaged(t *testing.T, since Stats, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := h.hub.Stats(); st.DeltaGets+st.FullGets >= since.DeltaGets+since.FullGets+n {
			return
		}
	}
	t.Fatal("the hub never staged the expected cascade proposal")
}

// TestProposalsGetIncrementally: in steady state no staging — a
// proposal, a SyncShares share, a cascade probe that finds nothing —
// calls Lens.Get; each event that swaps the replica in from elsewhere, or
// loses the in-memory pair, costs exactly one, whose proposal carries the
// payload hash the incremental path would have produced. For a restored
// replica that one get is the reconciler's re-derivation.
func TestProposalsGetIncrementally(t *testing.T) {
	fs := store.NewMemFS()
	st, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h := newPairHarness(t, true, st)
	var seen [3]int64
	seen[0], seen[1] = h.lensA.gets.Load(), h.lensB.gets.Load() // RegisterShare's own get

	h.hubEdit(t, "A", 0, "x", "first")
	h.hubEdit(t, "B", 0, "z", "first")
	h.expectGets(t, "first proposal after binding", &seen, 1, 1)

	h.hubEdit(t, "A", 1, "x", "steady")
	h.hubEdit(t, "B", 1, "y", "steady") // B proposes; A has yet to show y
	h.hubEdit(t, "A", 1, "x", "steady-2")
	h.expectGets(t, "steady-state proposals", &seen, 0, 0)
	h.checkViewIsGet(t, "A", h.lensA)
	h.checkViewIsGet(t, "B", h.lensB)

	// SyncShares: z is B's alone, so A's staging is a no-change probe.
	if err := h.hub.UpdateSource("T", setCol(3, "z", "synced")); err != nil {
		t.Fatal(err)
	}
	props, err := h.hub.SyncShares(h.ctx, "T")
	if err != nil || len(props) != 1 || props[0].ShareID != "B" {
		t.Fatalf("SyncShares proposed %+v (%v), want B only", props, err)
	}
	if err := h.hub.WaitFinal(h.ctx, "B", props[0].Seq); err != nil {
		t.Fatal(err)
	}
	h.expectGets(t, "SyncShares", &seen, 0, 0)

	// A cascade probe that finds nothing: y overlaps B's columns, but row
	// 12 is outside B's selection. Then one that finds something.
	before := h.hub.Stats()
	res := h.partnerEdit(t, h.pa, "A", 12, "y", "invisible-to-B")
	if err := h.pa.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	h.waitStaged(t, before, 1)
	metaB, _ := h.hub.Meta("B")
	before = h.hub.Stats()
	res = h.partnerEdit(t, h.pa, "A", 3, "y", "visible-to-B")
	if err := h.pa.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	if err := h.pb.WaitFinal(h.ctx, "B", metaB.Seq+1); err != nil {
		t.Fatal(err)
	}
	h.waitStaged(t, before, 1)
	pbView, _ := h.pb.View("B")
	if got := cell(t, pbView, 3, "y"); got != "visible-to-B" {
		t.Fatalf("cascade carried y = %q to B's partner", got)
	}
	h.expectGets(t, "cascade probes", &seen, 0, 0)
	h.checkViewIsGet(t, "B", h.lensB)

	// A contract denial rolls the replica back (rollbackProposal).
	if err := h.hub.SetPermission(h.ctx, "A", "x", []identity.Address{h.pa.Address()}); err != nil {
		t.Fatal(err)
	}
	if err := h.hub.UpdateSource("T", setCol(4, "x", "denied")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.hub.UpdateView(h.ctx, "A", nil); err == nil {
		t.Fatal("proposal on a column the hub may not write was admitted")
	}
	h.expectGets(t, "denied proposal", &seen, 0, 0)
	if err := h.hub.SetPermission(h.ctx, "A", "x", []identity.Address{h.hub.Address(), h.pa.Address()}); err != nil {
		t.Fatal(err)
	}
	h.proposeFullAndCheck(t, "A", h.lensA)
	h.expectGets(t, "first proposal after a denial rollback", &seen, 1, 0)
	h.hubEdit(t, "A", 4, "x", "after-denial")
	h.expectGets(t, "second proposal after a denial rollback", &seen, 0, 0)

	// A counterparty rejection rolls it back too (onUpdateRejected): the
	// partner's lens forbids the insert.
	if err := h.hub.UpdateSource("T", func(tb *reldb.Table) error {
		return tb.Insert(reldb.Row{reldb.I(100), reldb.S("x"), reldb.S("y"), reldb.S("z")})
	}); err != nil {
		t.Fatal(err)
	}
	res, err = h.hub.UpdateView(h.ctx, "A", nil)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, _ := h.hub.ShareInfo("A"); info.AppliedSeq == res.Seq-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the rejected proposal was never rolled back")
		}
	}
	h.expectGets(t, "rejected proposal", &seen, 0, 0)
	if err := h.hub.UpdateSource("T", func(tb *reldb.Table) error { return tb.Delete(reldb.Row{reldb.I(100)}) }); err != nil {
		t.Fatal(err)
	}
	if err := h.hub.UpdateSource("T", setCol(5, "x", "after-reject")); err != nil {
		t.Fatal(err)
	}
	h.proposeFullAndCheck(t, "A", h.lensA)
	h.expectGets(t, "first proposal after a rejection rollback", &seen, 1, 0)

	// Resync swaps the replica in: the hub restarts over an older image
	// of its store and catches up from its partner.
	image := fs.Clone()
	res = h.partnerEdit(t, h.pa, "A", 6, "x", "missed")
	if err := h.pa.WaitFinal(h.ctx, "A", res.Seq); err != nil {
		t.Fatal(err)
	}
	h.hub.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fs, st = image, h.restartHub(t, image)
	seen = [3]int64{}
	// A restored share is re-derived once it is settled: B at once, A
	// (behind the chain) after the resync catches it up.
	h.waitLensGets(t, 0, 1)
	h.expectGets(t, "restoring an older image", &seen, 0, 1)
	if err := h.hub.Resync(h.ctx); err != nil {
		t.Fatal(err)
	}
	h.waitLensGets(t, 1, 1)
	view, _ := h.hub.View("A")
	if got := cell(t, view, 6, "x"); got != "missed" {
		t.Fatalf("resync left x = %q on row 6", got)
	}
	if err := h.hub.UpdateSource("T", setCol(7, "x", "after-resync")); err != nil {
		t.Fatal(err)
	}
	h.proposeFullAndCheck(t, "A", h.lensA)
	h.expectGets(t, "first proposal after resync", &seen, 1, 0)

	// Restart over the durable store: the restored replica has no pair.
	h.hub.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	h.restartHub(t, fs)
	seen = [3]int64{}
	h.waitLensGets(t, 1, 1)
	h.expectGets(t, "restoring from the store", &seen, 1, 1)
	if err := h.hub.UpdateSource("T", setCol(2, "y", "after-restart")); err != nil {
		t.Fatal(err)
	}
	h.proposeFullAndCheck(t, "A", h.lensA)
	h.proposeFullAndCheck(t, "B", h.lensB)
	h.expectGets(t, "first proposal after restart", &seen, 0, 0)
	h.hubEdit(t, "A", 2, "x", "steady-again")
	h.expectGets(t, "second proposal after restart", &seen, 0, 0)
}

// waitLensGets waits until the hub's lenses have made a and b
// whole-source gets in all: the reconciler re-derives restored shares on
// its own goroutine.
func (h *pairHarness) waitLensGets(t *testing.T, a, b int64) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); h.lensA.gets.Load() < a || h.lensB.gets.Load() < b; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gets A %d B %d, want %d and %d", h.lensA.gets.Load(), h.lensB.gets.Load(), a, b)
		}
	}
}

// restartHub brings the stopped hub back as a new peer over fs, with
// fresh counting lenses, and attaches both shares from the store. It
// returns the store it opened.
func (h *pairHarness) restartHub(t *testing.T, fs *store.MemFS) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	h.lensA, h.lensB = hubLensA(), hubLensB()
	h.hub = h.newPeer(t, h.hubID, pairTable("T", "x", "y", "z"), st, true)
	if err := h.hub.AttachShare("A", "T", h.lensA, "Ah"); err != nil {
		t.Fatal(err)
	}
	if err := h.hub.AttachShare("B", "T", h.lensB, "Bh"); err != nil {
		t.Fatal(err)
	}
	return st
}

// proposeFullAndCheck proposes on a share to finality, and checks the
// on-chain payload hash is the one the incremental path gives for the
// same source from an unrelated starting point.
func (h *pairHarness) proposeFullAndCheck(t *testing.T, share string, counted *countingLens) {
	t.Helper()
	lens := counted.Lens
	src, err := h.hub.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.hub.UpdateView(h.ctx, share, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.hub.WaitFinal(h.ctx, share, res.Seq); err != nil {
		t.Fatal(err)
	}
	// The incremental path from an unrelated starting point: the empty
	// source and its (empty, seeded) view.
	s, _ := h.hub.share(share)
	empty := reldb.MustNewTable(src.Schema())
	emptyView, err := lens.Get(empty)
	if err != nil {
		t.Fatal(err)
	}
	srcCs, _ := empty.Diff(src)
	want, _, err := bx.GetDelta(lens, empty, src, s.seedView(emptyView), srcCs)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := h.hub.Meta(share)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LastPayloadHash != hashHex(want) {
		t.Fatalf("full-get proposal on %s committed payload hash %s, the incremental path gives %s", share, meta.LastPayloadHash, hashHex(want))
	}
	h.checkViewIsGet(t, share, counted)
}
