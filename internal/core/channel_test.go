package core

import (
	"context"
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
)

// channelHarness wires two peers over a memnet with one PoA node — the
// minimal environment for white-box data-channel tests. Each source
// holds a column h the share's lens hides, and the lens applies view
// inserts and deletes, so a put that re-creates a source row shows as a
// lost h.
type channelHarness struct {
	a, b *Peer
}

func newChannelHarness(t *testing.T) *channelHarness {
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
				{Name: "h", Type: reldb.KindString, Nullable: true},
			},
			Key: []string{"k"},
		})
		for i := int64(0); i < 8; i++ {
			tbl.MustInsert(reldb.Row{reldb.I(i), reldb.S("v0"), reldb.S("h0")})
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
	h := &channelHarness{a: mk("A"), b: mk("B")}

	lens := func(view string) bx.Lens {
		return bx.Project(view, []string{"k", "v"}, nil).WithInsert(bx.PolicyApply, nil).WithDelete(bx.PolicyApply)
	}
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
func (h *channelHarness) update(t *testing.T, val string) {
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

// view returns p's replica of the share.
func (h *channelHarness) view(t *testing.T, p *Peer) *reldb.Table {
	t.Helper()
	v, err := p.View("S")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// rootOf returns t's row-tree root as a request carries it.
func rootOf(t *reldb.Table) []byte {
	r := t.RowsRoot()
	return r[:]
}

// rawSync sends peer p's signed first data.sync request to A, offering
// the replica (haveSeq, haveRoot), and returns the decoded response
// frame and its size on the wire.
func rawSync(t *testing.T, p *Peer, haveSeq uint64, haveRoot []byte) (SyncResponse, int) {
	t.Helper()
	req := SyncRequest{
		ShareID:   "S",
		HaveSeq:   haveSeq,
		HaveRoot:  haveRoot,
		Requester: p.Address(),
		PubKey:    append([]byte(nil), p.cfg.Identity.PublicKey()...),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = p.cfg.Identity.Sign(req.signingBytes())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg, err := p.cfg.Transport.Request(ctx, "A", p2p.Message{Kind: p2p.KindSync, Payload: appendSyncRequest(nil, &req)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeSyncResponse(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShareID != "S" {
		t.Fatalf("response for share %q", resp.ShareID)
	}
	return resp, len(msg.Payload)
}

// TestSyncDeltaAnswer: a first request offering the version the updater
// retains — its seq and its root — gets the changeset from it, the
// share's seq-0 version included. A one-row edit ships in one frame of
// at most 128 bytes, and applied to the offered version it yields the
// updater's view. A request offering nothing gets the tree top.
func TestSyncDeltaAnswer(t *testing.T) {
	h := newChannelHarness(t)
	root0 := rootOf(h.view(t, h.a))
	h.update(t, "v1")
	resp, _ := rawSync(t, h.b, 0, root0)
	if resp.Delta == nil || resp.Seq != 1 {
		t.Fatalf("offering seq 0: delta %v at seq %d, want a delta at seq 1", resp.Delta != nil, resp.Seq)
	}

	view1 := h.view(t, h.a)
	h.update(t, "v2") // a's prev is now the seq-1 view
	resp, size := rawSync(t, h.b, 1, rootOf(view1))
	if resp.Delta == nil || resp.Seq != 2 {
		t.Fatalf("offering seq 1: delta %v at seq %d, want a delta at seq 2", resp.Delta != nil, resp.Seq)
	}
	if cs := *resp.Delta; cs.Size() != 1 || len(cs.Updated) != 1 {
		t.Fatalf("changeset = %+v", cs)
	}
	if len(resp.Nodes)+len(resp.Subtrees) != 0 {
		t.Fatal("a delta answer carries tree nodes")
	}
	// The one-row edit ships as canonical rows: header, root, three
	// section counts and the before/after rows.
	if size > 128 {
		t.Fatalf("delta answer for a one-row edit is %d bytes, want <= 128", size)
	}
	got := view1.Clone()
	if err := got.Apply(*resp.Delta); err != nil {
		t.Fatal(err)
	}
	if got.RowsRoot() != h.view(t, h.a).RowsRoot() {
		t.Fatal("the delta does not take the offered version to the updater's view")
	}

	top, _ := rawSync(t, h.b, 0, nil)
	if top.Delta != nil || len(top.Nodes) == 0 {
		t.Fatalf("a request offering nothing got delta %v and %d nodes, want the tree top", top.Delta != nil, len(top.Nodes))
	}
}

// TestSyncDeltaUnavailableDescends: when the updater does not hold the
// offered version — a seq it no longer retains, or the retained seq
// over other rows — it answers with the tree top, and acquire's walk
// converges to the vouched view in the same call.
func TestSyncDeltaUnavailableDescends(t *testing.T) {
	h := newChannelHarness(t)
	view0 := h.view(t, h.b)
	h.update(t, "v1")
	view1 := h.view(t, h.b)
	h.update(t, "v2") // a retains seq 1 only
	tampered := view1.Clone()
	if err := tampered.Update(reldb.Row{reldb.I(5)}, map[string]reldb.Value{"v": reldb.S("tampered")}); err != nil {
		t.Fatal(err)
	}
	want := h.view(t, h.a).RowsRoot()
	meta, err := h.b.Meta("S")
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.b.share("S")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range []struct {
		name    string
		seq     uint64
		replica *reldb.Table
	}{
		{"seq not retained", 0, view0},
		{"retained seq over other rows", 1, tampered},
	} {
		t.Run(c.name, func(t *testing.T) {
			if resp, _ := rawSync(t, h.b, c.seq, rootOf(c.replica)); resp.Delta != nil || len(resp.Nodes) == 0 {
				t.Fatalf("got delta %v and %d nodes, want the tree top", resp.Delta != nil, len(resp.Nodes))
			}
			s.opMu.Lock()
			defer s.opMu.Unlock()
			s.stMu.Lock()
			s.st.applied = c.seq
			s.stMu.Unlock()
			h.b.cfg.DB.PutTable(c.replica.Renamed(s.ViewName))
			rounds := h.b.Stats().SyncRounds
			a, err := h.b.acquire(ctx, s, h.a.Address(), meta.Seq, meta.LastPayloadHash)
			if err != nil {
				t.Fatal(err)
			}
			if a.view.RowsRoot() != want {
				t.Fatal("acquire did not converge to the updater's view")
			}
			if h.b.Stats().SyncRounds == rounds {
				t.Fatal("acquire converged without a walk")
			}
		})
	}
}

// TestPaddedDeltaKeepsHiddenColumns: a provider pads its delta answer
// with a delete + insert of an unchanged row beside the real edit. The
// padded changeset still takes B's replica to the vouched view, so the
// payload-hash check passes; it must not drive the delta put, which
// would re-create that source row and lose its hidden column.
func TestPaddedDeltaKeepsHiddenColumns(t *testing.T) {
	h := newChannelHarness(t)
	var padded atomic.Bool
	h.a.cfg.Transport.HandleRequest(func(msg p2p.Message) (p2p.Message, error) {
		out, err := h.a.serveSync(msg)
		if err != nil {
			return out, err
		}
		resp, err := decodeSyncResponse(out.Payload)
		if err != nil || resp.Delta == nil {
			return out, err
		}
		row := reldb.Row{reldb.I(2), reldb.S("v0")}
		resp.Delta.Deleted = append(resp.Delta.Deleted, row)
		resp.Delta.Inserted = append(resp.Delta.Inserted, row)
		padded.Store(true)
		return p2p.Message{Kind: out.Kind, Payload: appendSyncResponse(nil, &resp)}, nil
	})
	h.update(t, "v1")
	if !padded.Load() {
		t.Fatal("the update was acquired without a delta answer")
	}
	src, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := src.Value(reldb.Row{reldb.I(1)}, "v"); v.String() != "v1" {
		t.Fatalf("B's row 1 reads %q, want the update's v1", v.String())
	}
	if v, _ := src.Value(reldb.Row{reldb.I(2)}, "h"); v.String() != "h0" {
		t.Fatalf("B's padded row lost its hidden column: h reads %q, want h0", v.String())
	}
}

func TestSnapshotTableIndependent(t *testing.T) {
	h := newChannelHarness(t)
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
	// The full protocol path: both updates reach B as delta answers and
	// B's data matches.
	h := newChannelHarness(t)
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
