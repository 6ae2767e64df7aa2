package medshare

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
)

// TestServingEdgeTCPEndToEnd drives the whole share lifecycle through
// the HTTP serving edge with real TCP underneath at both layers: two
// nodes gossiping blocks over TCP, two peers fetching payloads over the
// same transports, and an api.Server per peer on a real HTTP listener —
// the exact wiring of two `medshared -api` processes. Everything goes
// through api.Client: register on the doctor's edge, attach on the
// patient's (lens spec defaulted from chain), update via the doctor,
// then a proof-verified fetch of the cascaded value from the PATIENT's
// edge, and finally the audit trail.
func TestServingEdgeTCPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	docID := identity.FromSeed("Doctor", "serve-1")
	patID := identity.FromSeed("Patient", "serve-2")
	authorities := []identity.Address{docID.Address(), patID.Address()}

	docT, err := p2p.NewTCPTransport("Doctor", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer docT.Close()
	patT, err := p2p.NewTCPTransport("Patient", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer patT.Close()
	docT.AddPeer("Patient", patT.Addr())
	patT.AddPeer("Doctor", docT.Addr())

	dir := core.NewDirectory()
	dir.Set(docID.Address(), "Doctor")
	dir.Set(patID.Address(), "Patient")

	mkNode := func(id *identity.Identity, tr p2p.Transport) *node.Node {
		n, err := node.New(node.Config{
			NetworkName:       "serving-e2e",
			Identity:          id,
			Engine:            consensus.NewPoA(true, authorities...),
			Registry:          contract.NewRegistry(sharereg.New()),
			BlockInterval:     5 * time.Millisecond,
			GroupCommitWindow: time.Millisecond,
			Transport:         tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start(ctx)
		t.Cleanup(n.Stop)
		return n
	}
	docNode := mkNode(docID, docT)
	patNode := mkNode(patID, patT)

	schema := reldb.Schema{
		Name: "records",
		Columns: []reldb.Column{
			{Name: "pid", Type: reldb.KindInt},
			{Name: "dosage", Type: reldb.KindString},
		},
		Key: []string{"pid"},
	}
	mkPeer := func(id *identity.Identity, n *node.Node, tr p2p.Transport) *core.Peer {
		db := reldb.NewDatabase(id.Name)
		tbl := reldb.MustNewTable(schema)
		tbl.MustInsert(reldb.Row{reldb.I(1), reldb.S("low")})
		tbl.MustInsert(reldb.Row{reldb.I(2), reldb.S("low")})
		db.PutTable(tbl)
		p, err := core.NewPeer(core.Config{
			Identity: id, DB: db, Node: n, Transport: tr, Directory: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		t.Cleanup(p.Stop)
		return p
	}
	doctor := mkPeer(docID, docNode, docT)
	patient := mkPeer(patID, patNode, patT)

	serve := func(p *core.Peer, n *node.Node) *api.Client {
		srv, err := api.New(api.Config{Peer: p, Node: n, CoalesceWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lis)
		t.Cleanup(func() { hs.Close() })
		return &api.Client{BaseURL: "http://" + lis.Addr().String()}
	}
	docAPI := serve(doctor, docNode)
	patAPI := serve(patient, patNode)

	if !httpOK(docAPI.BaseURL + "/healthz") {
		t.Fatal("doctor API not healthy")
	}

	spec, err := bx.Spec{
		Op: bx.OpProject, ViewName: "docV", Cols: []string{"pid", "dosage"},
		OnDelete: bx.PolicyApply, OnInsert: bx.PolicyApply,
	}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st, err := docAPI.Register(ctx, api.RegisterRequest{
		ID: "S", SourceTable: "records", ViewName: "docV",
		LensSpec: json.RawMessage(spec),
		Peers:    []string{docID.Address().String(), patID.Address().String()},
		WritePerm: map[string][]string{
			"dosage": {docID.Address().String()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "S" {
		t.Fatalf("registered %+v", st)
	}

	// The patient's edge learns about S from chain gossip, then attaches
	// without a lens spec — the server reuses the on-chain one.
	waitFor(t, 30*time.Second, func() bool {
		_, err := patient.Meta("S")
		return err == nil
	})
	if _, err := patAPI.Attach(ctx, "S", api.AttachRequest{SourceTable: "records", ViewName: "patV"}); err != nil {
		t.Fatal(err)
	}

	res, err := docAPI.Update(ctx, "S", []api.RowOp{{
		Op: "set", Key: []any{float64(1)}, Set: map[string]any{"dosage": "high"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoChange || res.Seq != 1 {
		t.Fatalf("update = %+v", res)
	}

	// The new value cascades to the patient over TCP; fetch it from the
	// PATIENT's serving edge with a membership proof and verify it
	// against that replica's own Merkle root.
	waitFor(t, 30*time.Second, func() bool {
		row, err := patAPI.Row(ctx, "S", []string{"1"}, false)
		if err != nil || len(row.Row) < 2 {
			return false
		}
		s, _ := row.Row[1].Str()
		return s == "high"
	})
	proved, err := patAPI.Row(ctx, "S", []string{"1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := api.VerifyRow(proved)
	if err != nil || !ok {
		t.Fatalf("proof verification: ok=%v err=%v", ok, err)
	}
	if proved.Seq != 1 {
		t.Fatalf("patient serves seq %d, want 1", proved.Seq)
	}

	// The audit trail from either edge shows the full story once the
	// patient's ack — submitted after its replica turned — has committed.
	if err := doctor.WaitFinal(ctx, "S", 1); err != nil {
		t.Fatal(err)
	}
	recs, err := docAPI.Audit(ctx, "S")
	if err != nil {
		t.Fatal(err)
	}
	var fns []string
	for _, r := range recs {
		if !r.OK {
			t.Fatalf("audit shows denial: %+v", r)
		}
		fns = append(fns, r.Fn)
	}
	joined := strings.Join(fns, ",")
	for _, want := range []string{"register", "request_update", "ack_update"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("audit trail %v missing %q", fns, want)
		}
	}

	// Both edges report ready once the cascade has settled.
	waitFor(t, 30*time.Second, func() bool {
		return httpOK(docAPI.BaseURL+"/readyz") && httpOK(patAPI.BaseURL+"/readyz")
	})
}

// httpOK reports whether a GET of url answers 200.
func httpOK(url string) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
