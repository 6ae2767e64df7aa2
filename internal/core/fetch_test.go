package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
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
)

// fetchHarness wires two peers over a memnet with one PoA node — the
// minimal environment for white-box data-channel tests.
type fetchHarness struct {
	node *node.Node
	a, b *Peer
	net  *p2p.MemNetwork
}

func newFetchHarness(t *testing.T) *fetchHarness {
	t.Helper()
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName:   "core-test",
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
	mk := func(name string) *Peer {
		id := identity.MustNew(name)
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
		p, err := NewPeer(Config{
			Identity: id, DB: db, Node: n,
			Transport: mem.Endpoint(name), Directory: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	h := &fetchHarness{node: n, a: mk("A"), b: mk("B"), net: mem}

	lens := func(view string) bx.Lens { return bx.Project(view, []string{"k", "v"}, nil) }
	err = h.a.RegisterShare(ctx, RegisterShareArgs{
		ID: "S", SourceTable: "T", Lens: lens("Sa"), ViewName: "Sa",
		Peers: []identity.Address{h.a.Address(), h.b.Address()},
		WritePerm: map[string][]identity.Address{
			"v": {h.a.Address(), h.b.Address()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.b.AttachShare("S", "T", lens("Sb"), "Sb"); err != nil {
		t.Fatal(err)
	}
	return h
}

// update performs one finalized update from peer a.
func (h *fetchHarness) update(t *testing.T, val string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S(val)})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.a.UpdateView(ctx, "S", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.a.WaitFinal(ctx, "S", res.Seq); err != nil {
		t.Fatal(err)
	}
}

// rawFetch performs a signed fetch as peer p and returns the decoded
// binary response frame and its size on the wire.
func rawFetch(t *testing.T, h *fetchHarness, p *Peer, haveSeq uint64) (FetchResponse, int) {
	t.Helper()
	req := FetchRequest{
		ShareID:   "S",
		MinSeq:    0,
		HaveSeq:   haveSeq,
		Requester: p.Address(),
		PubKey:    append([]byte(nil), p.cfg.Identity.PublicKey()...),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = p.cfg.Identity.Sign(req.signingBytes())
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg, err := p.cfg.Transport.Request(ctx, "A", p2p.Message{Kind: p2p.KindDataFetch, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeFetchResponse(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShareID != "S" {
		t.Fatalf("response for share %q", resp.ShareID)
	}
	return resp, len(msg.Payload)
}

func TestFetchDeltaMode(t *testing.T) {
	h := newFetchHarness(t)
	h.update(t, "v1")
	// The updater retains the seq-0 view; a requester holding seq 0 gets
	// a delta with exactly one changed row.
	resp, _ := rawFetch(t, h, h.b, 0)
	// HaveSeq 0 means "no version": full expected.
	if resp.Mode != FetchModeFull {
		t.Fatalf("mode for haveSeq 0 = %d", resp.Mode)
	}

	h.update(t, "v2") // a's prev is now the seq-1 view
	resp, size := rawFetch(t, h, h.b, 1)
	if resp.Mode != FetchModeDelta || resp.Seq != 2 {
		t.Fatalf("mode for haveSeq 1 = %d at seq %d, want delta at 2", resp.Mode, resp.Seq)
	}
	cs, err := reldb.DecodeChangeset(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() != 1 || len(cs.Updated) != 1 {
		t.Fatalf("changeset = %+v", cs)
	}
	// The one-row edit ships as canonical rows: header, three section
	// counts and the before/after rows — under 128 bytes (the JSON
	// response was ~175).
	if size > 128 {
		t.Fatalf("delta response for a one-row edit is %d bytes, want <= 128", size)
	}
	// The delta is much smaller than the full table, which decodes to
	// the updater's view.
	full, fullSize := rawFetch(t, h, h.b, 0)
	if size >= fullSize {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes)", size, fullSize)
	}
	tbl, err := reldb.DecodeTable(full.Payload)
	if err != nil {
		t.Fatal(err)
	}
	aView, _ := h.a.View("S")
	if !tbl.Equal(aView) {
		t.Fatal("full response does not decode to the updater's view")
	}
}

func TestFetchDeltaUnavailableFallsBack(t *testing.T) {
	h := newFetchHarness(t)
	h.update(t, "v1")
	h.update(t, "v2")
	// Requester claims an old version the updater no longer retains
	// (only seq-1 is kept): full response.
	resp, _ := rawFetch(t, h, h.b, 42)
	if resp.Mode != FetchModeFull {
		t.Fatalf("mode = %d, want full fallback", resp.Mode)
	}
}

func TestFetchRejectsBadSignature(t *testing.T) {
	h := newFetchHarness(t)
	h.update(t, "v1")
	req := FetchRequest{
		ShareID:   "S",
		Requester: h.b.Address(),
		PubKey:    append([]byte(nil), h.b.cfg.Identity.PublicKey()...),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = h.b.cfg.Identity.Sign([]byte("wrong bytes"))
	payload, _ := json.Marshal(req)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := h.b.cfg.Transport.Request(ctx, "A", p2p.Message{Kind: p2p.KindDataFetch, Payload: payload})
	if err == nil {
		t.Fatal("forged fetch accepted")
	}
}

func TestFetchRejectsImpersonation(t *testing.T) {
	h := newFetchHarness(t)
	h.update(t, "v1")
	// b signs correctly but claims a's address: address/key mismatch.
	req := FetchRequest{
		ShareID:   "S",
		Requester: h.a.Address(),
		PubKey:    append([]byte(nil), h.b.cfg.Identity.PublicKey()...),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = h.b.cfg.Identity.Sign(req.signingBytes())
	payload, _ := json.Marshal(req)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := h.b.cfg.Transport.Request(ctx, "A", p2p.Message{Kind: p2p.KindDataFetch, Payload: payload})
	if err == nil {
		t.Fatal("impersonated fetch accepted")
	}
}

func TestSnapshotTableIndependent(t *testing.T) {
	h := newFetchHarness(t)
	snap, err := h.a.snapshotTable("T")
	if err != nil {
		t.Fatal(err)
	}
	err = h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S("mutated")})
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := snap.Value(reldb.Row{reldb.I(1)}, "v")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.Str(); s != "v0" {
		t.Fatal("snapshot aliases live table")
	}
}

func TestEndToEndDeltaApply(t *testing.T) {
	// The full protocol path: after the first update (full fetch), the
	// second update reaches B via the delta path and B's data matches.
	h := newFetchHarness(t)
	h.update(t, "v1")
	h.update(t, "v2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.a.WaitFinal(ctx, "S", 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := h.b.Source("T")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := got.Value(reldb.Row{reldb.I(1)}, "v")
		if s, _ := v.Str(); s == "v2" {
			aView, _ := h.a.View("S")
			bView, _ := h.b.View("S")
			if aView.Hash() != bView.Hash() {
				t.Fatal("replicas diverge")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("delta-path update never arrived")
}

// Fetch requests the current payload of a share directly from the named
// counterparty (Fig. 2's "Request updated data"), for the data-channel
// tests; the peer itself fetches through acquire.
func (p *Peer) Fetch(ctx context.Context, from identity.Address, shareID string, minSeq uint64) (*reldb.Table, uint64, error) {
	table, _, seq, err := p.fetchFrom(ctx, from, shareID, minSeq, 0, nil)
	return table, seq, err
}

// TestFetchAuthorization: only sharing peers can fetch a share's payload
// over the data channel.
func TestFetchAuthorization(t *testing.T) {
	h := newFetchHarness(t)
	h.update(t, "v1")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A correctly signing participant that is not a peer of the share
	// must be refused.
	outsider, err := NewPeer(Config{
		Identity: identity.MustNew("Outsider"), DB: reldb.NewDatabase("Outsider"), Node: h.node,
		Transport: h.net.Endpoint("Outsider"), Directory: h.a.cfg.Directory,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = outsider.Fetch(ctx, h.a.Address(), "S", 0)
	if err == nil {
		t.Fatal("non-peer fetch succeeded")
	}
	if !errors.Is(err, ErrNotAuthorized) && !strings.Contains(err.Error(), "non-peer") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A legitimate peer fetch works.
	table, _, err := h.b.Fetch(ctx, h.a.Address(), "S", 0)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() == 0 {
		t.Fatal("fetched empty table")
	}
}
