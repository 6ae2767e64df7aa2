package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	"medshare/internal/p2p/faultnet"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// --- Backoff schedule properties ---

func TestBackoffDefaults(t *testing.T) {
	b := Backoff{}.withDefaults()
	if b.Base != 10*time.Millisecond || b.Max != 2*time.Second || b.Attempts != 4 {
		t.Fatalf("defaults = %+v", b)
	}
	if got := (Backoff{Attempts: -1}).withDefaults().Attempts; got != 4 {
		t.Fatalf("negative attempts → %d, want the default 4", got)
	}
}

// TestBackoffMonotoneAndCapped property-checks the pre-jitter schedule
// over randomized bases and caps: delays never shrink, never exceed the
// cap, and double until they hit it.
func TestBackoffMonotoneAndCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := Backoff{
			Base: time.Duration(1+rng.Intn(1000)) * time.Millisecond,
			Max:  time.Duration(1+rng.Intn(10000)) * time.Millisecond,
		}.withDefaults()
		prev := time.Duration(0)
		capped := false
		for retry := 0; retry < 64; retry++ {
			d := b.delay(retry)
			if d < prev {
				t.Fatalf("trial %d: delay(%d)=%v < delay(%d)=%v", trial, retry, d, retry-1, prev)
			}
			if d > b.Max {
				t.Fatalf("trial %d: delay(%d)=%v exceeds cap %v", trial, retry, d, b.Max)
			}
			if retry == 0 && d != b.Base && b.Base <= b.Max {
				t.Fatalf("trial %d: delay(0)=%v, want Base %v", trial, d, b.Base)
			}
			if retry > 0 && d != b.Max && d != 2*prev {
				t.Fatalf("trial %d: delay(%d)=%v below the cap but not double %v", trial, retry, d, prev)
			}
			if d == b.Max {
				capped = true
			}
			if capped && d != b.Max {
				t.Fatalf("trial %d: delay left the cap: %v", trial, d)
			}
			prev = d
		}
		if !capped {
			t.Fatalf("trial %d: schedule never reached the cap within 64 retries (base %v max %v)",
				trial, b.Base, b.Max)
		}
	}
}

// TestBackoffJitterBounds property-checks the jitter window: every
// sample lands in [d/2, d].
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		d := time.Duration(1+rng.Intn(5000)) * time.Millisecond
		for i := 0; i < 100; i++ {
			if got := jittered(d, rng.Float64()); got < d/2 || got > d {
				t.Fatalf("jittered(%v) = %v outside [%v, %v]", d, got, d/2, d)
			}
		}
	}
}

// --- Retry and health behavior over an injected-fault channel ---

// faultHarness is a syncHarness whose data channel runs through a
// faultnet fabric.
func faultHarness(t *testing.T, tweak func(name string, cfg *Config)) (*syncHarness, *faultnet.Fabric) {
	t.Helper()
	mem := p2p.NewMemNetwork()
	fab := faultnet.New(3)
	h := newSyncHarnessTweak(t, 16, fab.Wrap(mem.Endpoint("A")), fab.Wrap(mem.Endpoint("B")), tweak)
	return h, fab
}

func TestChannelRequestRetriesExhaustAndRecover(t *testing.T) {
	h, fab := faultHarness(t, func(name string, cfg *Config) {
		cfg.Retry = Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Attempts: 3}
		cfg.Health = HealthPolicy{FailureThreshold: 100} // keep quarantine out of this test
	})
	fab.SetRequestLoss(1, 0)
	if _, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0); err == nil {
		t.Fatal("sync succeeded through 100% request loss")
	}
	st := h.b.Stats()
	if st.RPCAttempts != 3 || st.RPCRetries != 2 || st.RPCFailures != 3 {
		t.Fatalf("stats after exhausted retries = %+v", st)
	}

	// Heal the channel: the same call now succeeds on the first attempt.
	fab.SetRequestLoss(0, 0)
	if _, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0); err != nil {
		t.Fatal(err)
	}
	st = h.b.Stats()
	if st.RPCAttempts != 4 || st.RPCFailures != 3 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestChannelRequestRetriesThroughTransientLoss(t *testing.T) {
	h, fab := faultHarness(t, func(name string, cfg *Config) {
		cfg.Retry = Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 6}
		cfg.Health = HealthPolicy{FailureThreshold: 1000} // quarantine tested separately
	})
	// 50% request loss: syncs succeed by retrying through it. The
	// seeded fabric makes the run repeatable; loop until the lossy dice
	// actually bite so the assertion is insensitive to the seed choice.
	fab.SetRequestLoss(0.5, 0)
	succeeded := 0
	for i := 0; i < 20; i++ {
		if _, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0); err == nil {
			succeeded++
		}
		if st := h.b.Stats(); st.RPCRetries > 0 && succeeded > 0 {
			return
		}
	}
	t.Fatalf("20 syncs under 50%% loss: %d successes, stats %+v", succeeded, h.b.Stats())
}

func TestQuarantineShortCircuitsAndProbes(t *testing.T) {
	h, fab := faultHarness(t, func(name string, cfg *Config) {
		cfg.Retry = Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 2}
		cfg.Health = HealthPolicy{
			FailureThreshold: 1,
			Quarantine:       50 * time.Millisecond,
			MaxQuarantine:    150 * time.Millisecond,
		}
	})
	fab.SetRequestLoss(1, 0)
	if _, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0); err == nil {
		t.Fatal("sync succeeded through 100% request loss")
	}
	// The endpoint is quarantined now: the next call fails locally,
	// without touching the wire.
	before := fab.Counters().Requests
	_, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
	if got := fab.Counters().Requests; got != before {
		t.Fatalf("short-circuited request still hit the wire (%d -> %d)", before, got)
	}
	if st := h.b.Stats(); st.DeadShortCircuits == 0 {
		t.Fatalf("stats = %+v, want DeadShortCircuits > 0", st)
	}

	// After the quarantine expires a probe goes through; with the fault
	// healed it succeeds and clears the record.
	fab.SetRequestLoss(0, 0)
	time.Sleep(200 * time.Millisecond)
	if _, _, _, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", 0); err != nil {
		t.Fatalf("probe after quarantine failed: %v", err)
	}
	if _, dead := h.b.quarantined("A"); dead {
		t.Fatal("endpoint still quarantined after successful probe")
	}
}

// --- Crash-restart convergence ---

// registerSecondShare binds a second share over B's source so an
// incoming update on S cascades to S2 on peer B.
func registerSecondShare(t *testing.T, h *syncHarness) {
	t.Helper()
	err := h.b.RegisterShare(h.ctx, RegisterShareArgs{
		ID: "S2", SourceTable: "T", Lens: syncLens("S2b"), ViewName: "S2b",
		Peers: []identity.Address{h.a.Address(), h.b.Address()},
		WritePerm: map[string][]identity.Address{
			"v": {h.a.Address(), h.b.Address()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.a.AttachShare("S2", "T", syncLens("S2a"), "S2a"); err != nil {
		t.Fatal(err)
	}
}

// testCrashRestartMidCascade is the transport-parameterized body: peer B
// crashes, misses an update whose cascade depends on it, restarts over
// a pre-update image of its store, and must converge through the repair
// loop alone — applying the pending update, acking it, and carrying the
// cascade to the dependent share.
func testCrashRestartMidCascade(t *testing.T, ta, tb p2p.Transport) {
	fs := store.NewMemFS()
	h := newSyncHarnessTweak(t, 16, ta, tb, func(name string, cfg *Config) {
		cfg.ResyncInterval = 25 * time.Millisecond
		cfg.Retry = Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Attempts: 4}
		cfg.Logf = t.Logf
		if name == "B" {
			withStore(t, cfg, fs)
		}
	})
	registerSecondShare(t, h)

	// B crashes with both shares at their pre-update state.
	image := fs.Clone()
	h.b.Stop()

	// A updates S while B is down: the proposal commits (the chain does
	// not need B) but stays pending, and the cascade into S2 cannot start
	// until B applies it — the protocol is mid-flight.
	err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S("crash-edit")})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.a.UpdateView(h.ctx, "S", nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta, err := h.a.Meta("S"); err != nil || meta.Pending == nil || meta.Pending.Seq != res.Seq {
		t.Fatalf("update %d is not pending on chain before B restarts: %+v, %v", res.Seq, meta, err)
	}

	// B comes back over its crash image and rejoins mid-cascade. It
	// missed the request: the node delivered the block's events before
	// UpdateView returned, while B was down. B's loops start before
	// its shares are bound, so the repair loop may apply S before S2 is
	// bound; either way S2 is re-derived. No manual resync: the repair
	// loop and the reconciler must do everything.
	h.b = restartPeer(t, h.b, image, syncTestTable(16), func(b *Peer) {
		for _, id := range []string{"S", "S2"} {
			if err := b.AttachShare(id, "T", syncLens(id+"b"), id+"b"); err != nil {
				t.Fatal(err)
			}
		}
	})

	// S finalizes (B applied + acked) and the cascade reaches S2 on A —
	// the cascade's own proposal finalizing is part of convergence here,
	// hence minSeq 1 on S2 (a vacuous "both stale" match must not pass).
	if err := h.a.WaitFinal(h.ctx, "S", res.Seq); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, h, "S", res.Seq)
	waitConverged(t, h, "S2", 1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.b.Stats()
		if st.ResyncsTriggered > 0 && st.RepairHeals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never acted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitConverged polls until the share is finalized at minSeq or beyond,
// nothing is pending, and both peers' replicas match the on-chain
// payload hash.
func waitConverged(t *testing.T, h *syncHarness, shareID string, minSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		meta, err := h.a.Meta(shareID)
		if err != nil {
			t.Fatal(err)
		}
		av, aerr := h.a.View(shareID)
		bv, berr := h.b.View(shareID)
		switch {
		case aerr != nil || berr != nil:
			last = fmt.Sprintf("views unavailable: %v / %v", aerr, berr)
		case meta.Seq < minSeq:
			last = fmt.Sprintf("chain at seq %d, want %d", meta.Seq, minSeq)
		case meta.Pending != nil:
			last = fmt.Sprintf("update %d still pending", meta.Pending.Seq)
		case meta.LastPayloadHash != "" && hashHex(av) != meta.LastPayloadHash:
			last = "A diverged from chain"
		case meta.LastPayloadHash != "" && hashHex(bv) != meta.LastPayloadHash:
			last = "B diverged from chain"
		case av.RowsRoot() != bv.RowsRoot():
			last = "replicas disagree"
		default:
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("share %s never converged: %s", shareID, last)
}

func TestCrashRestartMidCascadeMemnet(t *testing.T) {
	mem := p2p.NewMemNetwork()
	testCrashRestartMidCascade(t, mem.Endpoint("A"), mem.Endpoint("B"))
}

func TestCrashRestartMidCascadeTCP(t *testing.T) {
	ta, err := p2p.NewTCPTransport("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := p2p.NewTCPTransport("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ta.AddPeer("B", tb.Addr())
	tb.AddPeer("A", ta.Addr())
	testCrashRestartMidCascade(t, ta, tb)
}

// TestRepairHealsRootMismatch restarts B over a store image that
// carries the chain's sequence number over stale content — the
// wrong-backup case where the seq label alone cannot detect divergence.
// The repair loop must notice the root mismatch against the on-chain
// payload hash and heal through the structural sync.
func TestRepairHealsRootMismatch(t *testing.T) {
	mem := p2p.NewMemNetwork()
	fs := store.NewMemFS()
	h := newSyncHarnessTweak(t, 32, mem.Endpoint("A"), mem.Endpoint("B"), func(name string, cfg *Config) {
		cfg.ResyncInterval = 25 * time.Millisecond
		if name == "B" {
			withStore(t, cfg, fs)
		}
	})

	stale := fs.Clone()
	seq := h.finalizedUpdate(t, 3, "post-image")
	h.waitApplied(t, seq)

	// Relabel the stale image's share with the *current* seq, then
	// restart B over it.
	st, err := store.Open(store.Options{FS: stale})
	if err != nil {
		t.Fatal(err)
	}
	sm := st.Shares()["S"]
	sm.Seq = seq
	if err := st.Commit(func(b *store.Batch) error { return b.PutShareMeta(sm) }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	h.b = restartPeer(t, h.b, stale, syncTestTable(32), func(b *Peer) {
		if err := b.AttachShare("S", "T", syncLens("Sb"), "Sb"); err != nil {
			t.Fatal(err)
		}
	})

	waitConverged(t, h, "S", seq)
	// The replica turns before the repair records itself: wait for both.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		found := false
		for _, e := range h.b.History() {
			if e.Kind == "repaired" {
				found = true
			}
		}
		st := h.b.Stats()
		if found && st.RepairHeals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mismatch was not healed by the repair path: 'repaired' history entry %v, stats %+v", found, st)
		}
	}
}

// TestResyncInstallsOnlyVouchedVersion: a stale replica catches up while
// its counterparty holds a staged proposal that is not on-chain yet. The
// counterparty serves that staged view, and the chain has not vouched for
// it: B must not install it. If B did, it would sit one version ahead of
// the chain and never ack the update once A submits it.
func TestResyncInstallsOnlyVouchedVersion(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarnessTweak(t, 32, mem.Endpoint("A"), mem.Endpoint("B"), func(name string, cfg *Config) {
		cfg.ResyncInterval = 20 * time.Millisecond
	})
	seq1 := h.finalizedUpdate(t, 1, "one")
	h.waitApplied(t, seq1)
	src1, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	view1, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	seq2 := h.finalizedUpdate(t, 2, "two")
	h.waitApplied(t, seq2)

	// A stages seq 3: its replica and applied seq advance, the request
	// transaction is not submitted. Staged before B is rolled back, so
	// B's repair loop cannot catch up to seq 2 in between.
	if err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(3)}, map[string]reldb.Value{"v": reldb.S("staged")})
	}); err != nil {
		t.Fatal(err)
	}
	sa, err := h.a.share("S")
	if err != nil {
		t.Fatal(err)
	}
	sa.opMu.Lock()
	unlock := sync.OnceFunc(sa.opMu.Unlock)
	defer unlock()
	st, err := h.a.stageProposal(sa, false)
	if err != nil {
		t.Fatal(err)
	}

	h.rollback(t, seq1, src1, view1)
	_ = h.b.Resync(h.ctx) // fails while A serves only its staged version
	meta, err := h.b.Meta("S")
	if err != nil {
		t.Fatal(err)
	}
	info, err := h.b.ShareInfo("S")
	if err != nil {
		t.Fatal(err)
	}
	bView, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case info.AppliedSeq > meta.Seq:
		t.Fatalf("B resynced to applied seq %d while the chain is at seq %d", info.AppliedSeq, meta.Seq)
	case info.AppliedSeq == meta.Seq && hashHex(bView) != meta.LastPayloadHash:
		t.Fatalf("B holds seq %d under content the chain did not vouch for", meta.Seq)
	}

	if _, err := h.a.submitAndWait(h.ctx, st.tx); err != nil {
		h.a.rollbackProposal(st, err)
		t.Fatal(err)
	}
	res := h.a.finalizeProposal(st)
	h.a.persistShares(sa)
	unlock()
	ctx, cancel := context.WithTimeout(h.ctx, 3*time.Second)
	defer cancel()
	if err := h.a.WaitFinal(ctx, "S", res.Seq); err != nil {
		t.Fatalf("staged seq %d never finalized: %v", res.Seq, err)
	}
	waitConverged(t, h, "S", res.Seq)
}

// TestFirstUpdateKeepsUnproposedSourceEdit: B edits its source without
// proposing, then applies A's updates. Both reach B as delta answers,
// the first from the share's seq-0 version; the put writes only the
// rows A changed, so B keeps its own edits and its next proposal
// carries them to A.
func TestFirstUpdateKeepsUnproposedSourceEdit(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 16, mem.Endpoint("A"), mem.Endpoint("B"))
	setB := func(k int64, v string) {
		t.Helper()
		if err := h.b.UpdateSource("T", func(tbl *reldb.Table) error {
			return tbl.Update(reldb.Row{reldb.I(k)}, map[string]reldb.Value{"v": reldb.S(v)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	bHolds := func(when string, edits map[int64]string) {
		t.Helper()
		src, err := h.b.Source("T")
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range edits {
			if v, _ := src.Value(reldb.Row{reldb.I(k)}, "v"); v.String() != want {
				t.Fatalf("%s: B's row %d reads %q, want its local edit %q", when, k, v.String(), want)
			}
		}
	}

	setB(5, "b5")
	seq := h.finalizedUpdate(t, 1, "a1") // seq 1: delta from seq 0
	h.waitApplied(t, seq)
	bHolds("after seq 1", map[int64]string{5: "b5"})

	setB(6, "b6")
	seq = h.finalizedUpdate(t, 2, "a2") // seq 2: delta from seq 1
	h.waitApplied(t, seq)
	bHolds("after seq 2", map[int64]string{1: "a1", 2: "a2", 5: "b5", 6: "b6"})

	res, err := h.b.UpdateView(h.ctx, "S", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.b.WaitFinal(h.ctx, "S", res.Seq); err != nil {
		t.Fatal(err)
	}
	aSrc, err := h.a.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int64]string{5: "b5", 6: "b6"} {
		if v, _ := aSrc.Value(reldb.Row{reldb.I(k)}, "v"); v.String() != want {
			t.Fatalf("A's row %d reads %q after B's proposal, want %q", k, v.String(), want)
		}
	}
}

// --- Group-commit resilience ---

// TestGroupCommitResilience drives the batched commit path —
// ProposeUpdates over several independent shares on a node running
// demand-driven group commit — through sustained request loss and a
// crash-restart of the counterparty, and asserts the two invariants
// batching must not break: per-share sequence numbers advance in strict
// order on both replicas' histories, and every replica converges to the
// on-chain Merkle root.
func TestGroupCommitResilience(t *testing.T) {
	const (
		shares = 4
		rows   = 8
	)
	col := func(i int) string { return fmt.Sprintf("c%d", i) }
	shareID := func(i int) string { return fmt.Sprintf("S%02d", i) }

	mem := p2p.NewMemNetwork()
	fab := faultnet.New(7)
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "gc-test",
		Identity:      nid,
		Engine:        consensus.NewPoA(false, nid.Address()),
		Registry:      contract.NewRegistry(sharereg.New()),
		BlockInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	n.Start(ctx)
	t.Cleanup(n.Stop)

	schema := reldb.Schema{
		Name:    "T",
		Columns: []reldb.Column{{Name: "k", Type: reldb.KindInt}},
		Key:     []string{"k"},
	}
	for i := 0; i < shares; i++ {
		schema.Columns = append(schema.Columns, reldb.Column{Name: col(i), Type: reldb.KindString})
	}
	mkTable := func() *reldb.Table {
		tbl := reldb.MustNewTable(schema)
		for r := int64(0); r < rows; r++ {
			row := reldb.Row{reldb.I(r)}
			for i := 0; i < shares; i++ {
				row = append(row, reldb.S("init"))
			}
			tbl.MustInsert(row)
		}
		return tbl
	}
	dir := NewDirectory()
	fs := store.NewMemFS()
	mk := func(name string) *Peer {
		id := identity.MustNew(name)
		db := reldb.NewDatabase(name)
		db.PutTable(mkTable())
		cfg := Config{
			Identity: id, DB: db, Node: n,
			Transport: fab.Wrap(mem.Endpoint(name)), Directory: dir,
			Retry:          Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Attempts: 6},
			ResyncInterval: 20 * time.Millisecond,
		}
		if name == "B" {
			withStore(t, &cfg, fs)
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	a, b := mk("A"), mk("B")
	h := &syncHarness{ctx: ctx, node: n, a: a, b: b}

	ids := make([]string, shares)
	for i := 0; i < shares; i++ {
		ids[i] = shareID(i)
		err := a.RegisterShare(ctx, RegisterShareArgs{
			ID: ids[i], SourceTable: "T",
			Lens:     bx.Project(ids[i]+"a", []string{"k", col(i)}, nil),
			ViewName: ids[i] + "a",
			Peers:    []identity.Address{a.Address(), b.Address()},
			WritePerm: map[string][]identity.Address{
				col(i): {a.Address()},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = b.AttachShare(ids[i], "T", bx.Project(ids[i]+"b", []string{"k", col(i)}, nil), ids[i]+"b")
		if err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: batched rounds through a lossy data channel. Every round
	// edits all share columns of one row, stages all shares, and rides a
	// single group commit.
	fab.SetRequestLoss(0.35, 0)
	round := func(r int, wait bool) []ProposalResult {
		t.Helper()
		err := a.UpdateSource("T", func(tbl *reldb.Table) error {
			set := make(map[string]reldb.Value, shares)
			for i := 0; i < shares; i++ {
				set[col(i)] = reldb.S(fmt.Sprintf("r%d-%d", r, i))
			}
			return tbl.Update(reldb.Row{reldb.I(int64(r % rows))}, set)
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.ProposeUpdates(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != shares {
			t.Fatalf("round %d proposed %d of %d shares", r, len(res), shares)
		}
		if wait {
			for _, pr := range res {
				if err := a.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		return res
	}
	const lossyRounds = 3
	for r := 0; r < lossyRounds; r++ {
		round(r, true)
	}
	if st := a.Stats(); st.BatchCommits < lossyRounds || st.BatchTxs < uint64(lossyRounds*shares) {
		t.Fatalf("group commit unused: BatchCommits=%d BatchTxs=%d", st.BatchCommits, st.BatchTxs)
	}

	// Phase 2: crash the counterparty, propose a full batch while it is
	// down (the requests commit; finality must wait), then restart it over
	// its crash image. Its repair loop has to apply every pending update
	// in order and ack it through the still-lossy channel.
	image := fs.Clone()
	b.Stop()
	res := round(lossyRounds, false)
	b = restartPeer(t, b, image, mkTable(), func(b *Peer) {
		for i, id := range ids {
			if err := b.AttachShare(id, "T", bx.Project(id+"b", []string{"k", col(i)}, nil), id+"b"); err != nil {
				t.Fatal(err)
			}
		}
	})
	h.b = b
	for _, pr := range res {
		if err := a.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatal(err)
		}
	}

	// Heal and require Merkle-root convergence on every share.
	fab.SetRequestLoss(0, 0)
	finalSeq := uint64(lossyRounds + 1)
	for _, id := range ids {
		waitConverged(t, h, id, finalSeq)
	}

	// Per-share sequence order: each history stream (proposals on A,
	// applies on B, finalization events on both) must show every share's
	// sequence numbers strictly increasing — batching may not reorder or
	// skip a share's updates. Streams of different kinds interleave
	// (events are recorded asynchronously), so order is asserted within
	// each (share, kind) stream. Ordering violations fail immediately;
	// "final"-stream coverage is polled, because the event dispatcher records
	// finalization entries asynchronously and may trail WaitFinal (which
	// watches chain state, not the history log).
	type stream struct{ share, kind string }
	check := func(name string, p *Peer) error {
		last := make(map[stream]uint64)
		finals := make(map[string]uint64)
		for _, e := range p.History() {
			if e.Seq == 0 {
				continue // registration entries carry no sequence
			}
			k := stream{e.ShareID, e.Kind}
			if e.Seq <= last[k] {
				t.Fatalf("%s history out of order on %s/%s: seq %d after %d", name, e.ShareID, e.Kind, e.Seq, last[k])
			}
			last[k] = e.Seq
			if e.Kind == "final" {
				finals[e.ShareID] = e.Seq
			}
		}
		for _, id := range ids {
			if finals[id] != finalSeq {
				return fmt.Errorf("%s saw %s finalize up to seq %d, want %d", name, id, finals[id], finalSeq)
			}
		}
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var pending error
		for name, p := range map[string]*Peer{"A": a, "B": b} {
			if err := check(name, p); err != nil && pending == nil {
				pending = err
			}
		}
		if pending == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
