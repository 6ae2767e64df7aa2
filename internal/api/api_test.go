package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/light"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// harness is two peers over a memnet sharing one PoA node, with an
// httptest server fronting peer A — the API tests' world.
type harness struct {
	node     *node.Node
	mem      *p2p.MemNetwork
	dir      *core.Directory
	ids      map[string]*identity.Identity
	coalesce time.Duration
	a, b     *core.Peer
	server   *api.Server
	ts       *httptest.Server
	client   *api.Client
	ctx      context.Context
}

func newHarness(t *testing.T, coalesce time.Duration) *harness {
	return newDurableHarness(t, coalesce, nil)
}

// newDurableHarness is newHarness with peer A's replicas in a durable
// store on fsA (none when fsA is nil).
func newDurableHarness(t *testing.T, coalesce time.Duration, fsA *store.MemFS) *harness {
	t.Helper()
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "api-test",
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

	h := &harness{
		node: n, mem: p2p.NewMemNetwork(), dir: core.NewDirectory(),
		ids: map[string]*identity.Identity{"node": nid}, coalesce: coalesce, ctx: ctx,
	}
	h.a, h.b = h.newPeer(t, "A", fsA), h.newPeer(t, "B", nil)
	h.serve(t)
	return h
}

// newPeer starts peer name over a fresh database holding table T, with
// a durable store on fs when fs is non-nil. A peer started again under
// its name keeps its identity.
func (h *harness) newPeer(t *testing.T, name string, fs *store.MemFS) *core.Peer {
	t.Helper()
	id := h.ids[name]
	if id == nil {
		id = identity.MustNew(name)
		h.ids[name] = id
	}
	db := reldb.NewDatabase(name)
	tbl := reldb.MustNewTable(reldb.Schema{
		Name: "T",
		Columns: []reldb.Column{
			{Name: "k", Type: reldb.KindInt},
			{Name: "v", Type: reldb.KindString},
		},
		Key: []string{"k"},
	})
	for i := int64(0); i < 8; i++ {
		tbl.MustInsert(reldb.Row{reldb.I(i), reldb.S("v0")})
	}
	db.PutTable(tbl)
	cfg := core.Config{
		Identity: id, DB: db, Node: h.node,
		Transport: h.mem.Endpoint(name), Directory: h.dir,
	}
	if fs != nil {
		st, err := store.Open(store.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		cfg.Store = st
	}
	p, err := core.NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p
}

// serve fronts peer A with a fresh API server.
func (h *harness) serve(t *testing.T) {
	t.Helper()
	srv, err := api.New(api.Config{Peer: h.a, Node: h.node, CoalesceWindow: h.coalesce})
	if err != nil {
		t.Fatal(err)
	}
	h.server = srv
	h.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(h.ts.Close)
	h.client = &api.Client{BaseURL: h.ts.URL}
}

// get fetches path from the server and returns the status code and body.
func (h *harness) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// ready reports whether /readyz answers 200.
func (h *harness) ready(t *testing.T) bool {
	t.Helper()
	code, _ := h.get(t, "/readyz")
	return code == http.StatusOK
}

// metrics returns the /metrics exposition.
func (h *harness) metrics(t *testing.T) string {
	t.Helper()
	_, m := h.get(t, "/metrics")
	return m
}

func lensSpec(t *testing.T, view string) json.RawMessage {
	t.Helper()
	data, err := bx.Spec{Op: bx.OpProject, ViewName: view, Cols: []string{"k", "v"}, OnDelete: bx.PolicyApply, OnInsert: bx.PolicyApply}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// registerShare registers share "S" over HTTP with both peers and
// attaches it on B.
func (h *harness) registerShare(t *testing.T) {
	t.Helper()
	st, err := h.client.Register(h.ctx, api.RegisterRequest{
		ID:          "S",
		SourceTable: "T",
		ViewName:    "Sa",
		LensSpec:    lensSpec(t, "Sa"),
		Peers:       []string{h.a.Address().String(), h.b.Address().String()},
		WritePerm: map[string][]string{
			"k": {h.a.Address().String(), h.b.Address().String()},
			"v": {h.a.Address().String(), h.b.Address().String()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "S" || st.ViewName != "Sa" {
		t.Fatalf("register status = %+v", st)
	}
	lens, err := bx.Spec{Op: bx.OpProject, ViewName: "Sb", Cols: []string{"k", "v"}, OnDelete: bx.PolicyApply, OnInsert: bx.PolicyApply}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.b.AttachShare("S", "T", lens, "Sb"); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleOverHTTP(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)

	if code, body := h.get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := h.get(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, body)
	}

	var shares []api.ShareStatus
	_, body := h.get(t, "/v1/shares")
	if err := json.Unmarshal([]byte(body), &shares); err != nil || len(shares) != 1 || shares[0].ID != "S" {
		t.Fatalf("shares = %+v, err %v", shares, err)
	}

	view, err := h.client.Rows(h.ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 8 {
		t.Fatalf("rows len = %d", view.Len())
	}

	// Write through the API, then read the row back proof-carrying.
	res, err := h.client.Update(h.ctx, "S", []api.RowOp{
		{Op: "set", Key: []any{float64(3)}, Set: map[string]any{"v": "updated"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoChange || res.Seq == 0 {
		t.Fatalf("update result = %+v", res)
	}

	row, err := h.client.Row(h.ctx, "S", []string{"3"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := row.Row[1].Str(); got != "updated" {
		t.Fatalf("row = %+v", row.Row)
	}
	ok, err := api.VerifyRow(row)
	if err != nil || !ok {
		t.Fatalf("proof did not verify: ok=%v err=%v", ok, err)
	}
	if row.Seq != res.Seq {
		t.Fatalf("row seq %d != update seq %d", row.Seq, res.Seq)
	}

	// Repeat proven read: the proof cache must serve it.
	if _, err := h.client.Row(h.ctx, "S", []string{"3"}, true); err != nil {
		t.Fatal(err)
	}
	st := h.a.Stats()
	if st.ProofCacheMisses == 0 || st.ProofCacheHits == 0 {
		t.Fatalf("proof cache: hits=%d misses=%d", st.ProofCacheHits, st.ProofCacheMisses)
	}

	// A no-op write reports NoChange instead of burning a proposal.
	res, err = h.client.Update(h.ctx, "S", []api.RowOp{
		{Op: "set", Key: []any{float64(3)}, Set: map[string]any{"v": "updated"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoChange {
		t.Fatalf("expected NoChange, got %+v", res)
	}

	// The audit trail shows the registration and the update.
	recs, err := h.client.Audit(h.ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	fns := map[string]bool{}
	for _, r := range recs {
		fns[r.Fn] = true
	}
	if !fns["register"] || !fns["request_update"] {
		t.Fatalf("audit fns = %v", fns)
	}
}

func TestRowsViewCache(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)

	for i := 0; i < 3; i++ {
		if _, err := h.client.Rows(h.ctx, "S"); err != nil {
			t.Fatal(err)
		}
	}
	m := h.metrics(t)
	if !strings.Contains(m, "medshare_api_view_cache_hits_total 2") {
		t.Fatalf("expected 2 view-cache hits in metrics:\n%s", grepLines(m, "view_cache"))
	}
	// An update moves the root: next read re-marshals.
	if _, err := h.client.Update(h.ctx, "S", []api.RowOp{
		{Op: "upsert", Row: []any{float64(100), "new"}},
	}); err != nil {
		t.Fatal(err)
	}
	view, err := h.client.Rows(h.ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := view.Get(reldb.Row{reldb.I(100)}); !ok {
		t.Fatal("updated row missing from cached read")
	}
	m = h.metrics(t)
	if !strings.Contains(m, "medshare_api_view_cache_misses_total 2") {
		t.Fatalf("expected 2 view-cache misses after update:\n%s", grepLines(m, "view_cache"))
	}
}

func TestValidationErrors(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)

	if _, err := h.client.Update(h.ctx, "S", []api.RowOp{{Op: "explode"}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad op error = %v", err)
	}
	if _, err := h.client.Update(h.ctx, "nope", []api.RowOp{{Op: "delete", Key: []any{float64(1)}}}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown share error = %v", err)
	}
	if _, err := h.client.Row(h.ctx, "S", []string{"not-an-int"}, false); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad key error = %v", err)
	}
	if _, err := h.client.Row(h.ctx, "S", []string{"99"}, false); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing row error = %v", err)
	}
}

func TestWriteCoalescing(t *testing.T) {
	h := newHarness(t, 40*time.Millisecond)
	h.registerShare(t)

	// Four concurrent writers on distinct rows: the coalescer must fold
	// them into far fewer flushes than writers, and every edit must
	// land.
	const writers = 4
	results := make([]api.UpdateResult, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := h.client.Update(h.ctx, "S", []api.RowOp{
				{Op: "set", Key: []any{float64(i)}, Set: map[string]any{"v": "w"}},
			})
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	maxBatch := 0
	for _, r := range results {
		if r.Coalesced > maxBatch {
			maxBatch = r.Coalesced
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed: %+v", results)
	}
	view, err := h.client.Rows(h.ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		row, ok := view.Get(reldb.Row{reldb.I(int64(i))})
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		if got, _ := row[1].Str(); got != "w" {
			t.Fatalf("row %d = %v, write lost in coalescing", i, row)
		}
	}
}

func TestReadyzFlipsDuringResync(t *testing.T) {
	fs := store.NewMemFS()
	h := newDurableHarness(t, 0, fs)
	h.registerShare(t)

	// Image A's store at seq 0 and let B finalize an update.
	image := fs.Clone()
	res, err := h.b.UpdateView(h.ctx, "S", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(2)}, map[string]reldb.Value{"v": reldb.S("fromB")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.a.WaitFinal(h.ctx, "S", res.Seq); err != nil {
		t.Fatal(err)
	}
	if !h.ready(t) {
		t.Fatal("not ready before fault")
	}

	// Restart A over the older image: it now lags the chain.
	h.a.Stop()
	h.ts.Close()
	h.a = h.newPeer(t, "A", image)
	lens, err := bx.Spec{Op: bx.OpProject, ViewName: "Sa", Cols: []string{"k", "v"}, OnDelete: bx.PolicyApply, OnInsert: bx.PolicyApply}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.a.AttachShare("S", "T", lens, "Sa"); err != nil {
		t.Fatal(err)
	}
	h.serve(t)
	if h.ready(t) {
		t.Fatal("readyz reported ready while lagging the chain")
	}

	if err := h.a.Resync(h.ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := h.get(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after resync: %d %s", code, body)
	}
	if m := h.metrics(t); !strings.Contains(m, "medshare_api_not_ready_total 1") {
		t.Fatalf("not-ready probe not counted:\n%s", grepLines(m, "not_ready"))
	}
}

// TestReadyzReportsPoisonedNode: fork choice switching onto a branch
// whose declared state root does not reproduce leaves the node without a
// state for its head; /readyz must turn not-ready and say why.
func TestReadyzReportsPoisonedNode(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)
	if !h.ready(t) {
		t.Fatal("not ready before fault")
	}

	// A branch of empty blocks from genesis, one longer than the main
	// chain, whose first block declares a state root nothing produces.
	id := h.ids["node"]
	engine := consensus.NewPoA(false, id.Address())
	parent := h.node.Store().MainChain()[0]
	for height := uint64(1); height <= h.node.Store().Height()+1 && h.node.Poisoned() == nil; height++ {
		b := &chain.Block{Header: chain.Header{Height: height, PrevHash: parent.Hash(), TimestampMicro: int64(height)}}
		b.Header.TxRoot = b.ComputeTxRoot()
		b.Header.StateRoot[0] = 0xbd
		if err := engine.Seal(h.ctx, b, id); err != nil {
			t.Fatal(err)
		}
		_ = h.node.ReceiveBlock(b) // the block that wins fork choice reports the poisoning
		parent = b
	}

	if h.ready(t) {
		t.Fatal("readyz reported ready on a poisoned node")
	}
	resp, herr := http.Get(h.ts.URL + "/readyz")
	if herr != nil {
		t.Fatal(herr)
	}
	defer resp.Body.Close()
	var body struct {
		Ready    bool   `json:"ready"`
		Poisoned string `json:"poisoned"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready || !strings.Contains(body.Poisoned, "state root mismatch") {
		t.Fatalf("readyz = %d %+v, want 503 with the poisoning reason", resp.StatusCode, body)
	}
}

func TestMetricsExposition(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)
	if _, err := h.client.Rows(h.ctx, "S"); err != nil {
		t.Fatal(err)
	}
	m := h.metrics(t)
	for _, want := range []string{
		`medshare_api_requests_total{kind="rows"} 1`,
		`medshare_api_requests_total{kind="register"} 1`,
		"# TYPE medshare_api_latency_seconds summary",
		"medshare_peer_proof_cache_hits_total",
		"medshare_peer_batch_commits_total",
		"medshare_peer_delta_gets_total",
		"medshare_peer_full_gets_total",
		"# TYPE medshare_peer_event_backlog gauge",
		"medshare_chain_height",
		"# TYPE medshare_node_tx_sig_checks_total counter",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The registration was submitted, so its signature was checked.
	if strings.Contains(m, "medshare_node_tx_sig_checks_total 0\n") {
		t.Errorf("no signature checks counted after a registration:\n%s", grepLines(m, "sig_checks"))
	}
}

// TestMetricsStoreWrites: /metrics exports what the durable store wrote
// per record kind, the same figures Store.Stats reports.
func TestMetricsStoreWrites(t *testing.T) {
	h := newHarness(t, 0)
	st := store.OpenMemory()
	defer st.Close()
	src, err := h.a.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(func(b *store.Batch) error { return b.PutTable(src) }); err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(api.Config{Peer: h.a, Node: h.node, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	h.ts = httptest.NewServer(srv.Handler())
	defer h.ts.Close()
	m := h.metrics(t)
	w := st.Stats().Written
	for _, want := range []string{
		"# TYPE medshare_store_bytes_written_total counter",
		fmt.Sprintf(`medshare_store_bytes_written_total{kind="node"} %v`, float64(w["node"].Bytes)),
		fmt.Sprintf(`medshare_store_records_written_total{kind="node"} %v`, float64(w["node"].Records)),
		fmt.Sprintf(`medshare_store_bytes_written_total{kind="table_root"} %v`, float64(w["table_root"].Bytes)),
		`medshare_store_records_written_total{kind="commit"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(m, "written"))
		}
	}
}

// grepLines filters exposition lines for failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestLightOverHTTP runs a real light client against the HTTP light
// endpoints: header sync from the locally computed genesis, a
// proof-verified read, a cache hit, the on-chain payload-hash binding,
// and a fresh client observing a later write through a fresh proof
// chain.
func TestLightOverHTTP(t *testing.T) {
	h := newHarness(t, 0)
	h.registerShare(t)

	res, err := h.client.Update(h.ctx, "S", []api.RowOp{
		{Op: "set", Key: []any{float64(1)}, Set: map[string]any{"v": "lit"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The on-chain binding a proven read must recompute to: wait for the
	// write to finalize into the share's payload hash.
	var st api.ShareStatus
	for {
		st, err = h.client.Share(h.ctx, "S")
		if err != nil {
			t.Fatal(err)
		}
		if st.PayloadHash != "" && st.ChainSeq >= res.Seq {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	row, err := h.client.Row(h.ctx, "S", []string{"1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := api.VerifyRowPayload(row)
	if err != nil {
		t.Fatal(err)
	}
	if row.Seq == st.ChainSeq && payload != st.PayloadHash {
		t.Fatalf("recomputed payload %s != on-chain %s at seq %d", payload, st.PayloadHash, st.ChainSeq)
	}

	lc, err := light.New(light.Config{
		Network: "api-test",
		Source:  &api.LightSource{BaseURL: h.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	lc.Subscribe("S")
	if _, err := lc.SyncHeaders(h.ctx); err != nil {
		t.Fatalf("header sync over HTTP: %v", err)
	}
	got, err := lc.Read(h.ctx, "S", reldb.Row{reldb.I(1)})
	if err != nil {
		t.Fatalf("verified read over HTTP: %v", err)
	}
	if v, _ := got[1].Str(); v != "lit" {
		t.Fatalf("read %+v, want v=lit", got)
	}
	cached, err := lc.Read(h.ctx, "S", reldb.Row{reldb.I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cached[1].Str(); v != "lit" {
		t.Fatalf("cached read %+v", cached)
	}
	stats := lc.Stats()
	if stats.RowsVerified != 1 || stats.CacheHits != 1 || stats.VerifyFailures != 0 {
		t.Fatalf("light stats = %+v", stats)
	}
	if stats.WireBytes == 0 || lc.StateBytes() == 0 {
		t.Fatalf("light accounting empty: %+v, state %d", stats, lc.StateBytes())
	}

	// A later write must be observable by a fresh client through a fresh
	// header + proof chain (gossip invalidation is a p2p concern; over
	// plain HTTP freshness comes from re-proving).
	if _, err := h.client.Update(h.ctx, "S", []api.RowOp{
		{Op: "set", Key: []any{float64(1)}, Set: map[string]any{"v": "lit2"}},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		lc2, err := light.New(light.Config{
			Network: "api-test",
			Source:  &api.LightSource{BaseURL: h.ts.URL},
		})
		if err != nil {
			t.Fatal(err)
		}
		lc2.Subscribe("S")
		if _, err := lc2.SyncHeaders(h.ctx); err != nil {
			t.Fatal(err)
		}
		got, err := lc2.Read(h.ctx, "S", reldb.Row{reldb.I(1)})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got[1].Str(); v == "lit2" {
			if s2 := lc2.Stats(); s2.VerifyFailures != 0 {
				t.Fatalf("fresh client stats = %+v", s2)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fresh client never observed the second write: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
