package medshare

import (
	"errors"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// TestUpdateViewEntryLevel exercises the Fig. 4 entry-level update done
// directly on the shared table rather than on the source.
func TestUpdateViewEntryLevel(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	res, err := sc.Doctor.UpdateView(ctx, workload.ShareIDD13, func(v *reldb.Table) error {
		return v.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("entry-level dosage")})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The doctor's own source D3 was updated through put before the
	// proposal went out.
	d3, _ := sc.Doctor.Source("D3")
	got := mustValue(t, d3, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "entry-level dosage" {
		t.Fatalf("doctor D3 dosage = %q", s)
	}
	if err := sc.Doctor.WaitFinal(ctx, workload.ShareIDD13, res.Seq); err != nil {
		t.Fatal(err)
	}
	d1, _ := sc.Patient.Source("D1")
	got = mustValue(t, d1, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "entry-level dosage" {
		t.Fatalf("patient D1 dosage = %q", s)
	}
}

// TestEntryCreateAndDelete exercises Fig. 4 Create and Delete at entry
// level: the doctor admits a new patient row and later deletes it, and
// both structural changes reach the patient's D1 (whose lens applies
// structural edits with an address default).
func TestEntryCreateAndDelete(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Insert(reldb.Row{
			reldb.I(190), reldb.S("Ibuprofen"), reldb.S("CliD3"),
			reldb.S("one tablet daily"), reldb.S("MeA1"),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatalf("create sync: %v", err)
	}
	for _, pr := range props {
		if err := sc.Doctor.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ := sc.Patient.Source("D1")
	row, ok := d1.Get(reldb.Row{reldb.I(190)})
	if !ok {
		t.Fatal("new patient row missing from D1")
	}
	if s, _ := row[d1.Schema().ColumnIndex(workload.ColAddress)].Str(); s != "unknown" {
		t.Fatalf("hidden address default = %q", s)
	}

	// Delete the entry again.
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Delete(reldb.Row{reldb.I(190)})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err = sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatalf("delete sync: %v", err)
	}
	for _, pr := range props {
		if err := sc.Doctor.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ = sc.Patient.Source("D1")
	if d1.Has(reldb.Row{reldb.I(190)}) {
		t.Fatal("deleted patient row still in D1")
	}
}

// TestRejectAndRollback: a view edit that cannot be translated into the
// counterparty's source must be rejected on-chain and rolled back on the
// proposer, leaving the share usable.
func TestRejectAndRollback(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// The researcher invents a brand-new medication in D2. Its D23 view
	// gains a row; the doctor's D32 lens forbids inserts (a medication
	// with no patient has no D3 representation), so the doctor rejects.
	err = sc.Researcher.UpdateSource("D2", func(tbl *reldb.Table) error {
		return tbl.Insert(reldb.Row{reldb.S("Novamycin"), reldb.S("MeA-new"), reldb.S("MoA-new")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Researcher.SyncShares(ctx, "D2")
	if err != nil {
		t.Fatalf("researcher sync: %v", err)
	}
	if len(props) != 1 {
		t.Fatalf("props = %+v", props)
	}

	// Wait until the doctor's rejection rolls the researcher's replica
	// back (on-chain pending cleared, seq unchanged).
	waitFor(t, 30*time.Second, func() bool {
		meta, err := sc.Researcher.Meta(workload.ShareIDD23)
		if err != nil {
			return false
		}
		return meta.Pending == nil && meta.Seq == 0
	})
	// The replicas agree again.
	waitFor(t, 30*time.Second, func() bool {
		d23, err1 := sc.Researcher.View(workload.ShareIDD23)
		d32, err2 := sc.Doctor.View(workload.ShareIDD23)
		return err1 == nil && err2 == nil && d23.Hash() == d32.Hash()
	})
	// The researcher's local D2 keeps its edit (surfaced, not destroyed).
	d2, _ := sc.Researcher.Source("D2")
	if !d2.Has(reldb.Row{reldb.S("Novamycin")}) {
		t.Fatal("local source edit must survive a rejection")
	}
	// The rollback is visible in the researcher's history.
	found := false
	for _, h := range sc.Researcher.History() {
		if h.Kind == "rolled-back" && h.ShareID == workload.ShareIDD23 {
			found = true
		}
	}
	if !found {
		t.Fatal("rolled-back history entry missing")
	}
	// The share remains usable afterwards.
	err = sc.Researcher.UpdateSource("D2", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.S("Ibuprofen")},
			map[string]reldb.Value{workload.ColMechanism: reldb.S("MeA1-after-reject")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err = sc.Researcher.SyncShares(ctx, "D2")
	if err != nil {
		t.Fatalf("share unusable after rejection: %v", err)
	}
	// The proposal includes the still-unsynced Novamycin row as well; it
	// will be rejected again. Accept either outcome for the final wait:
	// what matters is the mechanism edit was proposable at all.
	_ = props
}

// TestRemoveShareLifecycle: the owner removes a share (Fig. 4 table-level
// delete); both sides drop their bindings.
func TestRemoveShareLifecycle(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// Non-owner cannot remove.
	if err := sc.Patient.RemoveShare(ctx, workload.ShareIDD13); err == nil {
		t.Fatal("non-owner removal should fail")
	}
	if err := sc.Doctor.RemoveShare(ctx, workload.ShareIDD13); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Doctor.Meta(workload.ShareIDD13); err == nil {
		t.Fatal("metadata still on chain")
	}
	// The patient's binding disappears once the removal event arrives.
	waitFor(t, 30*time.Second, func() bool {
		for _, id := range sc.Patient.Shares() {
			if id == workload.ShareIDD13 {
				return false
			}
		}
		return true
	})
	// The other share is unaffected.
	if _, err := sc.Doctor.Meta(workload.ShareIDD23); err != nil {
		t.Fatal("unrelated share was removed")
	}
}

// TestMultiNodeScenario runs the Fig. 5 flow with three blockchain nodes
// under strict round-robin PoA, each stakeholder on a different node.
func TestMultiNodeScenario(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, NetworkConfig{
		Nodes:         3,
		BlockInterval: 3 * time.Millisecond,
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	err = sc.Researcher.UpdateSource("D2", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.S("Ibuprofen")},
			map[string]reldb.Value{workload.ColMechanism: reldb.S("MeA1-multinode")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Researcher.SyncShares(ctx, "D2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Researcher.WaitFinal(ctx, workload.ShareIDD23, props[0].Seq); err != nil {
		t.Fatal(err)
	}
	// The doctor (attached to a different node) applied the update.
	waitFor(t, 30*time.Second, func() bool {
		d3, err := sc.Doctor.Source("D3")
		if err != nil {
			return false
		}
		v, err := d3.Value(reldb.Row{reldb.I(188)}, workload.ColMechanism)
		if err != nil {
			return false
		}
		s, _ := v.Str()
		return s == "MeA1-multinode"
	})
}

// TestResyncAfterMissedEvents: a peer that missed all notifications
// catches up from contract state and the data channel.
func TestResyncAfterMissedEvents(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// Silence the patient's event loop to simulate missed notifications.
	sc.Patient.Stop()

	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("resync dosage")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Doctor.SyncShares(ctx, "D3"); err != nil {
		t.Fatal(err)
	}
	// Patient missed the event. Resync reconciles: fetch, put, ack.
	if err := sc.Patient.Resync(ctx); err != nil {
		t.Fatal(err)
	}
	d1, _ := sc.Patient.Source("D1")
	got := mustValue(t, d1, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "resync dosage" {
		t.Fatalf("dosage after resync = %q", s)
	}
	// The ack finalized the share.
	meta, err := sc.Patient.Meta(workload.ShareIDD13)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != 1 || meta.Pending != nil {
		t.Fatalf("meta = %+v", meta)
	}
}

// TestAutoResyncRecovers: with the periodic resync loop enabled, a peer
// that misses every notification still converges without manual calls.
func TestAutoResyncRecovers(t *testing.T) {
	ctx := testCtx(t)
	cfg := fastNet()
	cfg.PeerResyncInterval = 10 * time.Millisecond
	cfg.DurablePeers = true
	sc, err := NewFig1Scenario(ctx, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// The patient crashes and misses whatever happens while it is down.
	image := sc.Network.peerFS["Patient"].Clone()
	sc.Patient.Stop()
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("auto-resynced")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Doctor.SyncShares(ctx, "D3"); err != nil {
		t.Fatal(err)
	}
	// The patient missed the event entirely. Restarting it over its
	// crash image brings only the periodic resync loop; no event will
	// ever arrive for seq 1.
	sc.Patient, err = restartPeer(sc.Network, sc.Patient, "Patient", 0, image)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Patient.AttachShare(workload.ShareIDD13, "D1", workload.LensD13(), "D13"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool {
		d1, err := sc.Patient.Source("D1")
		if err != nil {
			return false
		}
		row, _ := d1.Get(reldb.Row{reldb.I(188)})
		if row == nil {
			return false
		}
		s, _ := row[d1.Schema().ColumnIndex(workload.ColDosage)].Str()
		return s == "auto-resynced"
	})
	// And the share finalized (the resync acked).
	if err := sc.Doctor.WaitFinal(ctx, workload.ShareIDD13, 1); err != nil {
		t.Fatal(err)
	}
}

// TestLensSpecOnChainRebuild: any peer can rebuild the registered lens
// from on-chain metadata and derive the same view.
func TestLensSpecOnChainRebuild(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	meta, err := sc.Doctor.Meta(workload.ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.LensSpec) == 0 {
		t.Fatal("lens spec not registered on-chain")
	}
	spec, err := bx.ParseSpec(meta.LensSpec)
	if err != nil {
		t.Fatal(err)
	}
	lens, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	d3, _ := sc.Doctor.Source("D3")
	rebuilt, err := lens.Get(d3)
	if err != nil {
		t.Fatal(err)
	}
	d32, _ := sc.Doctor.View(workload.ShareIDD23)
	// Content comparison: the stored replica carries the share's priority
	// seed, the ad-hoc rebuild does not, so their Merkle roots differ.
	if !rebuilt.Equal(d32) {
		t.Fatal("rebuilt lens derives a different view")
	}
}

// TestConcurrentUpdateGate: while an update is pending, a second update
// on the same share is denied (the paper's serialization rule), and
// succeeds after finalization.
func TestConcurrentUpdateGate(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// Stop the patient so the doctor's update stays pending.
	sc.Patient.Stop()

	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("first")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Doctor.SyncShares(ctx, "D3"); err != nil {
		t.Fatal(err)
	}

	// Second doctor update on the same share while pending: denied.
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("second")})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Doctor.UpdateView(ctx, workload.ShareIDD13, nil)
	if err == nil {
		t.Fatal("second update admitted while first is pending")
	}
	if !errors.Is(err, core.ErrTxFailed) {
		t.Fatalf("want core.ErrTxFailed, got %v", err)
	}

	// The patient resyncs (fetches + acks), finalizing the first update.
	if err := sc.Patient.Resync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sc.Doctor.WaitFinal(ctx, workload.ShareIDD13, 1); err != nil {
		t.Fatal(err)
	}
	// Now the second update goes through.
	if _, err := sc.Doctor.UpdateView(ctx, workload.ShareIDD13, nil); err != nil {
		t.Fatalf("update after finalization denied: %v", err)
	}
}
