package core

import (
	"context"
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

func syncTestSchema() reldb.Schema {
	return reldb.Schema{
		Name: "T",
		Columns: []reldb.Column{
			{Name: "k", Type: reldb.KindInt},
			{Name: "v", Type: reldb.KindString},
		},
		Key: []string{"k"},
	}
}

func syncTestTable(rows int) *reldb.Table {
	tbl := reldb.MustNewTable(syncTestSchema())
	for i := int64(0); i < int64(rows); i++ {
		tbl.MustInsert(reldb.Row{reldb.I(i), reldb.S(fmt.Sprintf("v%d", i))})
	}
	return tbl
}

// syncHarness wires two peers (sharing one PoA node) whose data channel
// runs on caller-supplied transports — memnet or real TCP.
type syncHarness struct {
	ctx  context.Context
	node *node.Node
	a, b *Peer
}

func newSyncHarness(t *testing.T, rows int, ta, tb p2p.Transport) *syncHarness {
	return newSyncHarnessTweak(t, rows, ta, tb, nil)
}

// newSyncHarnessTweak is newSyncHarness with a per-peer Config hook (the
// resilience tests tune retry, health, and repair-loop settings).
func newSyncHarnessTweak(t *testing.T, rows int, ta, tb p2p.Transport, tweak func(name string, cfg *Config)) *syncHarness {
	t.Helper()
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "sync-test",
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

	dir := NewDirectory()
	mk := func(name string, tr p2p.Transport) *Peer {
		id := identity.MustNew(name)
		db := reldb.NewDatabase(name)
		db.PutTable(syncTestTable(rows))
		cfg := Config{
			Identity: id, DB: db, Node: n,
			Transport: tr, Directory: dir,
		}
		if tweak != nil {
			tweak(name, &cfg)
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	h := &syncHarness{ctx: ctx, node: n, a: mk("A", ta), b: mk("B", tb)}

	err = h.a.RegisterShare(ctx, RegisterShareArgs{
		ID: "S", SourceTable: "T", Lens: syncLens("Sa"), ViewName: "Sa",
		Peers: []identity.Address{h.a.Address(), h.b.Address()},
		WritePerm: map[string][]identity.Address{
			"v": {h.a.Address(), h.b.Address()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.b.AttachShare("S", "T", syncLens("Sb"), "Sb"); err != nil {
		t.Fatal(err)
	}
	return h
}

// syncLens is the harness shares' lens. Inserts and deletes are allowed:
// the cold-replica path re-embeds a full view into an empty source.
func syncLens(view string) bx.Lens {
	return bx.Project(view, []string{"k", "v"}, nil).
		WithInsert(bx.PolicyApply, nil).
		WithDelete(bx.PolicyApply)
}

// restartPeer stops p and starts a new peer over image, a clone of p's
// store filesystem taken earlier: the way a medshared process restarts
// over its data dir. The new peer keeps p's identity, transport and
// settings; its database starts with only src. The new peer starts its
// event, repair and reconciler loops first, and only then does attach
// bind its shares again, restoring them from the store — the order
// medshared restarts in.
func restartPeer(t *testing.T, p *Peer, image *store.MemFS, src *reldb.Table, attach func(*Peer)) *Peer {
	t.Helper()
	p.Stop()
	st, err := store.Open(store.Options{FS: image})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	cfg := p.cfg
	cfg.DB = reldb.NewDatabase(p.Name())
	cfg.DB.PutTable(src)
	cfg.Store = st
	np, err := NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	np.Start()
	t.Cleanup(np.Stop)
	attach(np)
	return np
}

// withStore gives a peer a durable store on fs.
func withStore(t *testing.T, cfg *Config, fs *store.MemFS) {
	t.Helper()
	st, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	cfg.Store = st
}

// finalizedUpdate drives one A-side update through to finality (B acks
// via its event loop).
func (h *syncHarness) finalizedUpdate(t *testing.T, key int64, val string) uint64 {
	t.Helper()
	err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(key)}, map[string]reldb.Value{"v": reldb.S(val)})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.a.UpdateView(h.ctx, "S", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.a.WaitFinal(h.ctx, "S", res.Seq); err != nil {
		t.Fatal(err)
	}
	return res.Seq
}

// rollback restores peer b's share state to an earlier snapshot — the
// white-box stand-in for a replica restored from an old backup (the
// cold/long-diverged case the structural sync exists for).
func (h *syncHarness) rollback(t *testing.T, seq uint64, src, view *reldb.Table) {
	t.Helper()
	s, err := h.b.share("S")
	if err != nil {
		t.Fatal(err)
	}
	s.stMu.Lock()
	s.st.applied, s.st.prev, s.st.staged = seq, nil, false
	s.stMu.Unlock()
	h.b.cfg.DB.PutTable(src.Renamed(s.SourceTable))
	h.b.cfg.DB.PutTable(view.Renamed(s.ViewName))
}

// waitApplied polls until b's applied sequence reaches seq.
func (h *syncHarness) waitApplied(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := h.b.ShareInfo("S")
		if err != nil {
			t.Fatal(err)
		}
		if info.AppliedSeq >= seq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("peer B never reached seq %d", seq)
}

// testSyncConvergence is the transport-parameterized body: a diverged
// and then a cold replica must converge to the updater's Merkle root
// through the structural sync path, grafting what they already hold.
func testSyncConvergence(t *testing.T, rows int, ta, tb p2p.Transport) {
	h := newSyncHarness(t, rows, ta, tb)

	// Snapshot B's state at seq 0.
	src0, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	view0, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}

	// Three finalized updates (B applies and acks each live).
	var last uint64
	for i := 0; i < 3; i++ {
		last = h.finalizedUpdate(t, int64(i*7+1), fmt.Sprintf("upd%d", i))
	}
	h.waitApplied(t, last)

	aView, err := h.a.View("S")
	if err != nil {
		t.Fatal(err)
	}

	// Long-diverged: roll B back to its seq-0 snapshot, then probe the
	// structural sync directly for stats.
	h.rollback(t, 0, src0, view0)
	synced, seq, stats, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", last)
	if err != nil {
		t.Fatal(err)
	}
	if seq != last {
		t.Fatalf("sync served seq %d, want %d", seq, last)
	}
	if synced.RowsRoot() != aView.RowsRoot() {
		t.Fatal("structural sync did not reproduce the updater's Merkle root")
	}
	if stats.RowsGrafted < rows/2 {
		t.Fatalf("diverged sync grafted only %d of %d rows (should reuse the overlap)", stats.RowsGrafted, rows)
	}
	transferred := stats.RowsInline + stats.NodesFetched
	if transferred >= rows/4 {
		t.Fatalf("diverged sync transferred %d row-bearing units for a 3-row divergence on %d rows", transferred, rows)
	}

	// Now converge for real through Resync (verify + put + state).
	if err := h.b.Resync(h.ctx); err != nil {
		t.Fatal(err)
	}
	bView, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	if bView.RowsRoot() != aView.RowsRoot() {
		t.Fatal("replicas did not converge after resync")
	}
	info, err := h.b.ShareInfo("S")
	if err != nil {
		t.Fatal(err)
	}
	if info.AppliedSeq != last {
		t.Fatalf("B applied seq %d, want %d", info.AppliedSeq, last)
	}
	// The put must have re-embedded the updates into B's source.
	bSrc, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := bSrc.Value(reldb.Row{reldb.I(1)}, "v"); err != nil || v.String() != "upd0" {
		t.Fatalf("source not realigned after sync: %v %v", v, err)
	}

	// Cold: empty source and view, applied 0 — everything transfers,
	// and the replica still converges.
	h.rollback(t, 0, reldb.MustNewTable(syncTestSchema()), reldb.MustNewTable(syncTestSchema()))
	_, _, coldStats, err := h.b.StructuralSync(h.ctx, h.a.Address(), "S", last)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.RowsGrafted != 0 {
		t.Fatalf("cold sync grafted %d rows from an empty replica", coldStats.RowsGrafted)
	}
	if err := h.b.Resync(h.ctx); err != nil {
		t.Fatal(err)
	}
	bView, err = h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	if bView.RowsRoot() != aView.RowsRoot() {
		t.Fatal("cold replica did not converge after resync")
	}
}

func TestStructuralSyncConvergenceMemnet(t *testing.T) {
	mem := p2p.NewMemNetwork()
	testSyncConvergence(t, 512, mem.Endpoint("A"), mem.Endpoint("B"))
}

func TestStructuralSyncConvergenceTCP(t *testing.T) {
	ta, err := p2p.NewTCPTransport("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ta.Close() })
	tb, err := p2p.NewTCPTransport("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	ta.AddPeer("B", tb.Addr())
	tb.AddPeer("A", ta.Addr())
	testSyncConvergence(t, 256, ta, tb)
}

// TestNonUTF8CellFinalizes: a cell that is not valid UTF-8 (a Latin-1
// "é", the charset of legacy HL7 v2 feeds) crosses the data channel byte
// for byte. The update finalizes, the counterparty's replica equals the
// on-chain payload hash, and a replica rolled back to hold the cell
// resyncs through data.sync — including a second such cell it lacks.
func TestNonUTF8CellFinalizes(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 64, mem.Endpoint("A"), mem.Endpoint("B"))
	seq := h.finalizedUpdate(t, 3, "caf\xe9")
	waitConverged(t, h, "S", seq)
	bView, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := bView.Value(reldb.Row{reldb.I(3)}, "v"); v.String() != "caf\xe9" {
		t.Fatalf("counterparty holds %q", v.String())
	}

	src1, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	h.finalizedUpdate(t, 40, "na\xefve")
	last := h.finalizedUpdate(t, 41, "plain")
	h.waitApplied(t, last)
	h.rollback(t, seq, src1, bView)
	rounds := h.b.Stats().SyncRounds
	if err := h.b.Resync(h.ctx); err != nil {
		t.Fatal(err)
	}
	if h.b.Stats().SyncRounds == rounds {
		t.Fatal("resync did not walk data.sync")
	}
	waitConverged(t, h, "S", last)
	bView, err = h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := bView.Value(reldb.Row{reldb.I(40)}, "v"); v.String() != "na\xefve" {
		t.Fatalf("resynced replica holds %q", v.String())
	}
}

// TestSimulatedSyncBytes pins the headline claim: a d-row divergence on
// a 10k-row view syncs with a small fraction of the full-view payload.
func TestSimulatedSyncBytes(t *testing.T) {
	const rows, d = 10000, 16
	provider := syncTestTable(rows)
	base := provider.Clone()
	for i := 0; i < d; i++ {
		if err := base.Update(reldb.Row{reldb.I(int64(i * 613))}, map[string]reldb.Value{"v": reldb.S("stale")}); err != nil {
			t.Fatal(err)
		}
	}
	out, stats, err := simulateStructuralSync(provider, base)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowsRoot() != provider.RowsRoot() {
		t.Fatal("simulated sync did not converge")
	}
	// The full payload: every row's canonical encoding, what a walk of
	// an empty replica ships at least.
	var full []byte
	for _, r := range provider.RowsCanonical() {
		full = r.AppendCanonical(full)
	}
	// Scattered divergence: d independent O(log n) paths. The binary
	// frame (raw 32-byte digests, varint sizes) plus requester-driven
	// row fetch pin this well below the old base64-JSON protocol's 20%.
	syncBytes := stats.BytesSent + stats.BytesReceived
	if syncBytes*8 >= len(full) {
		t.Fatalf("sync moved %d bytes for a scattered %d-row divergence; full payload is %d (want <12.5%%)", syncBytes, d, len(full))
	}
	// Per-unit byte budget: a fetched node is one key, one canonical row
	// (~30 B here) and two compact child summaries; an inline row is its
	// canonical encoding. A return to JSON node summaries (~450 B each)
	// or to JSON rows (~50 B each) blows this bound.
	budget := 150*stats.NodesFetched + 40*stats.RowsInline + 64*stats.Rounds + 512
	if stats.BytesReceived >= budget {
		t.Fatalf("response frames cost %d bytes for %d nodes + %d inline rows (budget %d): per-node overhead regressed",
			stats.BytesReceived, stats.NodesFetched, stats.RowsInline, budget)
	}
	// Most rows never cross the wire: rows ship only on explicit request
	// for subtrees the requester could not match.
	if stats.RowsGrafted < rows*9/10 {
		t.Fatalf("grafted only %d of %d rows", stats.RowsGrafted, rows)
	}
	if stats.RowsInline > 32*d {
		t.Fatalf("shipped %d rows for a %d-row divergence (speculative inlining?)", stats.RowsInline, d)
	}

	// Contiguous divergence (the one-subtree case): the paths share all
	// but their last hops, so even 4d changed rows cost a tiny fraction.
	contig := provider.Clone()
	for i := 0; i < 4*d; i++ {
		if err := contig.Update(reldb.Row{reldb.I(int64(5000 + i))}, map[string]reldb.Value{"v": reldb.S("stale")}); err != nil {
			t.Fatal(err)
		}
	}
	out3, cStats, err := simulateStructuralSync(provider, contig)
	if err != nil {
		t.Fatal(err)
	}
	if out3.RowsRoot() != provider.RowsRoot() {
		t.Fatal("contiguous-divergence sync did not converge")
	}
	cBytes := cStats.BytesSent + cStats.BytesReceived
	if cBytes*30 >= len(full) {
		t.Fatalf("one-subtree divergence moved %d bytes of a %d-byte view (want <3.3%%)", cBytes, len(full))
	}

	// Cold start converges too (bytes necessarily ~full size).
	empty := reldb.MustNewTable(syncTestSchema())
	out2, _, err := simulateStructuralSync(provider, empty)
	if err != nil {
		t.Fatal(err)
	}
	if out2.RowsRoot() != provider.RowsRoot() {
		t.Fatal("cold simulated sync did not converge")
	}
	// And syncing two identical tables moves one round and zero rows.
	same, sStats, err := simulateStructuralSync(provider, provider.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if same.RowsRoot() != provider.RowsRoot() || sStats.RowsInline != 0 {
		t.Fatal("identical-table sync transferred rows")
	}
}

// TestShareViewsArePrioritySeeded: registering a share draws a random
// priority secret into the on-chain metadata, every replica stores its
// view under it (identical, unpredictable tree shapes — equal Merkle
// roots), and the seeded shape survives the update cycle. An unkeyed
// rebuild of the same contents has a different root, which is exactly
// the point: nobody without the secret can reproduce (or grind) the
// shape.
func TestShareViewsArePrioritySeeded(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 64, mem.Endpoint("A"), mem.Endpoint("B"))

	meta, err := h.a.Meta("S")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.PrioSeed) == 0 {
		t.Fatal("share registered without a priority seed")
	}
	av, err := h.a.View("S")
	if err != nil {
		t.Fatal(err)
	}
	bv, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*reldb.Table{av, bv} {
		if string(v.PrioritySecret()) != string(meta.PrioSeed) {
			t.Fatal("stored replica does not carry the share's priority seed")
		}
	}
	if av.RowsRoot() != bv.RowsRoot() {
		t.Fatal("seeded replicas disagree on the Merkle root")
	}
	unkeyed := av.Reseeded(nil)
	if !unkeyed.Equal(av) {
		t.Fatal("reseeding changed contents")
	}
	if unkeyed.RowsRoot() == av.RowsRoot() {
		t.Fatal("seeded shape equals the unkeyed shape: the seed is not keying priorities")
	}

	// A finalized update (B applies via fetch + delta put) keeps both
	// replicas in the seeded shape.
	seq := h.finalizedUpdate(t, 5, "seeded-edit")
	h.waitApplied(t, seq)
	av, _ = h.a.View("S")
	bv, _ = h.b.View("S")
	if av.RowsRoot() != bv.RowsRoot() {
		t.Fatal("replicas diverged after a seeded update")
	}
	if string(bv.PrioritySecret()) != string(meta.PrioSeed) {
		t.Fatal("replica lost its priority seed across an update")
	}
}

// TestServeSyncRejectsUnauthorized: data.sync serves only the share's
// members, on a signature over the request's canonical bytes. Those
// cover the span and the offered replica, so a relay can neither
// inflate a captured request's response amplification nor turn its walk
// into a delta answer.
func TestServeSyncRejectsUnauthorized(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 32, mem.Endpoint("A"), mem.Endpoint("B"))
	view0, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	root0 := view0.RowsRoot()
	h.finalizedUpdate(t, 1, "one") // A retains seq 0: offering it earns a delta
	member, outsider := h.b.cfg.Identity, identity.MustNew("Mallory")
	request := func(id *identity.Identity) SyncRequest {
		return SyncRequest{
			ShareID:   "S",
			Span:      1,
			Requester: id.Address(),
			PubKey:    append([]byte(nil), id.PublicKey()...),
			TsMicro:   time.Now().UnixMicro(),
		}
	}
	// frame signs req as signer, then applies tamper to the signed
	// request, as a relay would.
	frame := func(req SyncRequest, signer *identity.Identity, tamper func(*SyncRequest)) []byte {
		req.Sig = signer.Sign(req.signingBytes())
		if tamper != nil {
			tamper(&req)
		}
		return appendSyncRequest(nil, &req)
	}
	impersonated := request(member)
	impersonated.Requester = h.a.Address()
	offer := request(member)
	offer.HaveSeq, offer.HaveRoot = 0, root0[:]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ep := mem.Endpoint("M")
	for _, c := range []struct {
		name    string
		payload []byte
		served  bool
	}{
		{"member", frame(request(member), member, nil), true},
		{"member offering its replica", frame(offer, member, nil), true},
		{"non-member", frame(request(outsider), outsider, nil), false},
		{"bad signature", frame(request(member), member, func(r *SyncRequest) { r.Sig = []byte("bogus") }), false},
		{"impersonation", frame(impersonated, member, nil), false},
		{"span tampered", frame(request(member), member, func(r *SyncRequest) { r.Span = 3 }), false},
		{"have-seq tampered", frame(offer, member, func(r *SyncRequest) { r.HaveSeq = 1 }), false},
		{"have-root tampered", frame(request(member), member, func(r *SyncRequest) { r.HaveRoot = root0[:] }), false},
		{"json", []byte(`{"shareId":"S"}`), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ep.Request(ctx, "A", p2p.Message{Kind: p2p.KindSync, Payload: c.payload})
			if c.served && err != nil {
				t.Fatalf("refused: %v", err)
			}
			if !c.served && err == nil {
				t.Fatal("served")
			}
		})
	}
}

// TestSyncSpanCutsRounds pins the tentpole latency claim: for a 16-row
// divergence, the span-expanded pipelined walk completes in strictly
// fewer round-trips than the serial one-level-per-round walk, while
// converging to the same root and shipping the same inline rows.
func TestSyncSpanCutsRounds(t *testing.T) {
	const rows, d = 10000, 16
	provider := syncTestTable(rows)
	base := provider.Clone()
	for i := 0; i < d; i++ {
		if err := base.Update(reldb.Row{reldb.I(int64(i * 613))}, map[string]reldb.Value{"v": reldb.S("stale")}); err != nil {
			t.Fatal(err)
		}
	}
	serialOut, serial, err := simulateStructuralSyncOpts(provider, base, SyncOptions{Span: -1, Parallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	fastOut, fast, err := simulateStructuralSyncOpts(provider, base, SyncOptions{Span: 2, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serialOut.RowsRoot() != provider.RowsRoot() || fastOut.RowsRoot() != provider.RowsRoot() {
		t.Fatal("sync did not converge")
	}
	if fast.Rounds >= serial.Rounds {
		t.Fatalf("span-expanded walk took %d rounds, serial walk %d: expansion did not cut the round count", fast.Rounds, serial.Rounds)
	}
	// The serial walk sends exactly one request per round; the pipelined
	// walk may chunk a wave but never sends more than Parallel per wave.
	if serial.Requests != serial.Rounds {
		t.Fatalf("serial walk sent %d requests over %d rounds", serial.Requests, serial.Rounds)
	}
	if fast.Requests < fast.Rounds || fast.Requests > 8*fast.Rounds {
		t.Fatalf("pipelined walk sent %d requests over %d rounds", fast.Requests, fast.Rounds)
	}
	// Speculation costs bounded summary bytes, never extra rows: the
	// inline row set is exactly the divergent small subtrees either way.
	if fast.RowsInline != serial.RowsInline {
		t.Fatalf("span walk shipped %d inline rows, serial %d", fast.RowsInline, serial.RowsInline)
	}
	if fast.RowsGrafted != serial.RowsGrafted {
		t.Fatalf("span walk grafted %d rows, serial %d", fast.RowsGrafted, serial.RowsGrafted)
	}
	// Waste bound: expansion ships at most one matched sibling per
	// expanded level of a lone divergent path, so the node count stays
	// within a small multiple of the serial walk's.
	if fast.NodesFetched > 3*serial.NodesFetched {
		t.Fatalf("span walk fetched %d nodes, serial %d: speculation overhead exceeds 3x", fast.NodesFetched, serial.NodesFetched)
	}
}

// simulateStructuralSync runs the anti-entropy exchange between two
// in-memory tables through the real wire encoding (binary request and
// response frames, no transport or chain) — the measurement harness
// behind BenchmarkMerkle_AntiEntropy and the byte-count assertions.
// provider plays the updater's view, base the stale local replica; the
// returned stats count exactly the bytes the TCP path would carry in
// message payloads.
// It runs the byte-optimal serial walk (no span expansion, one request
// per wave) so the byte numbers it pins are the protocol floor; use
// simulateStructuralSyncOpts to measure the latency-optimized
// operating points.
func simulateStructuralSync(provider, base *reldb.Table) (*reldb.Table, SyncStats, error) {
	return simulateStructuralSyncOpts(provider, base, SyncOptions{Span: -1, Parallel: -1})
}

// simulateStructuralSyncOpts is simulateStructuralSync under explicit
// walk options — the round-count and span-overhead measurement harness.
func simulateStructuralSyncOpts(provider, base *reldb.Table, opts SyncOptions) (*reldb.Table, SyncStats, error) {
	opts = opts.normalized()
	var stats SyncStats
	var mu sync.Mutex
	fetch := func(keys, rowKeys [][]byte) (SyncResponse, error) {
		req := SyncRequest{Span: opts.Span, Keys: keys, RowKeys: rowKeys}
		rawReq := appendSyncRequest(nil, &req)
		root := provider.RowsRoot()
		resp := SyncResponse{Seq: 1, Root: root[:], Empty: provider.Len() == 0}
		if !resp.Empty {
			resp.Nodes = syncNodesFor(provider, keys, len(keys) == 0 && len(rowKeys) == 0, req.Span)
			resp.Subtrees = syncSubtreesFor(provider, rowKeys)
		}
		rawResp := appendSyncResponse(nil, &resp)
		mu.Lock()
		stats.BytesSent += len(rawReq)
		stats.BytesReceived += len(rawResp)
		mu.Unlock()
		return decodeSyncResponse(rawResp)
	}
	t, _, _, err := assembleSync(base, fetch, &stats, opts)
	return t, stats, err
}

// BenchmarkMerkle_AntiEntropy measures a full structural sync round trip
// (wire-encoded both ways) for a 16-row scattered divergence on a
// 10k-row view, reporting the bytes moved against the full payload.
func BenchmarkMerkle_AntiEntropy(b *testing.B) {
	full := workload.Generate("full", 10000, 1)
	full.Hash()
	keys := full.RowsCanonical()
	stale := full.Clone()
	for j := 0; j < 16; j++ {
		if err := stale.Update(full.KeyValues(keys[j*613]),
			map[string]reldb.Value{workload.ColDosage: reldb.S("stale")}); err != nil {
			b.Fatal(err)
		}
	}
	fullRaw, err := reldb.MarshalTable(full)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats SyncStats
	for i := 0; i < b.N; i++ {
		out, s, err := simulateStructuralSync(full, stale)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != full.Len() {
			b.Fatal("sync diverged")
		}
		stats = s
	}
	b.ReportMetric(float64(stats.BytesSent+stats.BytesReceived), "B/sync")
	b.ReportMetric(float64(len(fullRaw)), "B/full")
}
