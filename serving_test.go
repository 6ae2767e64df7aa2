package medshare

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/daemon"
	"medshare/internal/reldb"
	"medshare/internal/workload"
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

	ds := openDaemons(t, daemon.Config{
		Participants: []daemon.Participant{
			{Name: "Doctor", Seed: "serve-1", Addr: "127.0.0.1:0"},
			{Name: "Patient", Seed: "serve-2", Addr: "127.0.0.1:0"},
		},
		Network:       "serving-e2e",
		BlockInterval: 5 * time.Millisecond,
		API:           "127.0.0.1:0",
	}, nil)
	defer closeDaemons(t, ds)
	docID, patID := ds[0].Identity, ds[1].Identity

	schema := reldb.Schema{
		Name: "records",
		Columns: []reldb.Column{
			{Name: "pid", Type: reldb.KindInt},
			{Name: "dosage", Type: reldb.KindString},
		},
		Key: []string{"pid"},
	}
	for _, d := range ds {
		tbl := reldb.MustNewTable(schema)
		tbl.MustInsert(reldb.Row{reldb.I(1), reldb.S("low")})
		tbl.MustInsert(reldb.Row{reldb.I(2), reldb.S("low")})
		d.DB.PutTable(tbl)
	}
	doctor, patient := ds[0].Peer, ds[1].Peer
	docAPI := &api.Client{BaseURL: "http://" + ds[0].APIAddr}
	patAPI := &api.Client{BaseURL: "http://" + ds[1].APIAddr}

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

// TestViewEditReachesSiblingShareHTTP is TestViewEditReachesSiblingShare
// with the doctor's edit written through the serving edge:
// POST /v1/shares/D13&D31/update.
func TestViewEditReachesSiblingShareHTTP(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()
	srv, err := api.New(api.Config{Peer: sc.Doctor, Node: sc.Network.Node(0), CoalesceWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	meta, err := sc.Researcher.Meta(ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&api.Client{BaseURL: hs.URL}).Update(ctx, ShareIDD13, []api.RowOp{{
		Op: "set", Key: []any{float64(188)}, Set: map[string]any{workload.ColMedication: "Naproxen"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoChange {
		t.Fatalf("update = %+v, want a proposal", res)
	}
	if err := sc.Doctor.WaitFinal(ctx, ShareIDD13, res.Seq); err != nil {
		t.Fatal(err)
	}
	checkRenameReachedResearcher(t, ctx, sc, meta.Seq+1)
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
