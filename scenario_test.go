package medshare

import (
	"context"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// fastNet returns a network config tuned for tests: single PoA node,
// millisecond blocks.
func fastNet() NetworkConfig {
	return NetworkConfig{BlockInterval: 2 * time.Millisecond}
}

// testCtx bounds every integration test.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func mustValue(t *testing.T, tbl *reldb.Table, key reldb.Row, col string) reldb.Value {
	t.Helper()
	row, ok := tbl.Get(key)
	i := tbl.Schema().ColumnIndex(col)
	if !ok || i < 0 {
		t.Fatalf("reading %s of %v: no such row or column", col, key)
	}
	return row[i]
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", d)
}

// TestFig5Workflow drives the paper's Section III-E case end to end:
// the researcher updates a mechanism of action in D2, the change reaches
// the doctor's D3 through share D23&D32, and a subsequent doctor-side
// dosage change reaches the patient's D1 through share D13&D31.
func TestFig5Workflow(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()

	// Each side derives its replica from its own source (D13 from D1 and
	// D31 from D3; D23 from D2 and D32 from D3); before any update the
	// two derivations of each shared table must already agree.
	for id, other := range map[string]*core.Peer{workload.ShareIDD13: sc.Patient, workload.ShareIDD23: sc.Researcher} {
		mine, err := sc.Doctor.View(id)
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := other.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if mine.Hash() != theirs.Hash() {
			t.Fatalf("%s: independently derived replicas disagree at registration", id)
		}
	}

	// Step 1: researcher updates MeA1 on its source D2 locally.
	err = sc.Researcher.UpdateSource("D2", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.S("Ibuprofen")},
			map[string]reldb.Value{workload.ColMechanism: reldb.S("MeA1-revised")})
	})
	if err != nil {
		t.Fatalf("local update: %v", err)
	}

	// Steps 1-2: regenerate D23 and request the update on-chain.
	props, err := sc.Researcher.SyncShares(ctx, "D2")
	if err != nil {
		t.Fatalf("sync shares: %v", err)
	}
	if len(props) != 1 || props[0].ShareID != workload.ShareIDD23 {
		t.Fatalf("expected one proposal on %s, got %+v", workload.ShareIDD23, props)
	}

	// Steps 3-5 happen in the doctor's event loop; wait for finalization
	// (all peers acked).
	if err := sc.Researcher.WaitFinal(ctx, workload.ShareIDD23, props[0].Seq); err != nil {
		t.Fatalf("waiting final: %v", err)
	}

	// The doctor's source D3 must now carry the revised mechanism.
	d3, err := sc.Doctor.Source("D3")
	if err != nil {
		t.Fatal(err)
	}
	got := mustValue(t, d3, reldb.Row{reldb.I(188)}, workload.ColMechanism)
	if s, _ := got.Str(); s != "MeA1-revised" {
		t.Fatalf("doctor D3 mechanism = %q, want MeA1-revised", s)
	}

	// The doctor's replica D32 and the researcher's D23 agree.
	d32, err := sc.Doctor.View(workload.ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	d23, err := sc.Researcher.View(workload.ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	if d32.Hash() != d23.Hash() {
		t.Fatalf("replicas diverged: D32 %x vs D23 %x", d32.Hash(), d23.Hash())
	}

	// Steps 7-11: the doctor decides to modify the dosage for patient 188
	// (the paper's continuation), which flows through D13&D31 to the
	// patient's D1.
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("two tablets every 8h")})
	})
	if err != nil {
		t.Fatalf("doctor local update: %v", err)
	}
	props, err = sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatalf("doctor sync: %v", err)
	}
	if len(props) != 1 || props[0].ShareID != workload.ShareIDD13 {
		t.Fatalf("expected one proposal on %s, got %+v", workload.ShareIDD13, props)
	}
	if err := sc.Doctor.WaitFinal(ctx, workload.ShareIDD13, props[0].Seq); err != nil {
		t.Fatalf("waiting final: %v", err)
	}

	d1, err := sc.Patient.Source("D1")
	if err != nil {
		t.Fatal(err)
	}
	got = mustValue(t, d1, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "two tablets every 8h" {
		t.Fatalf("patient D1 dosage = %q, want updated dosage", s)
	}

	// The patient's address (hidden from every share) must be untouched.
	got = mustValue(t, d1, reldb.Row{reldb.I(188)}, workload.ColAddress)
	if s, _ := got.Str(); s != "Sapporo" {
		t.Fatalf("patient D1 address = %q, want Sapporo (hidden attribute must survive put)", s)
	}
}

// TestPermissionDenied verifies Fig. 3 enforcement: the patient may update
// clinical data but not dosage.
func TestPermissionDenied(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()

	// Allowed: clinical data.
	err = sc.Patient.UpdateSource("D1", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColClinical: reldb.S("CliD1-amended")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Patient.SyncShares(ctx, "D1")
	if err != nil {
		t.Fatalf("allowed update rejected: %v", err)
	}
	if err := sc.Patient.WaitFinal(ctx, workload.ShareIDD13, props[0].Seq); err != nil {
		t.Fatal(err)
	}
	d3, _ := sc.Doctor.Source("D3")
	got := mustValue(t, d3, reldb.Row{reldb.I(188)}, workload.ColClinical)
	if s, _ := got.Str(); s != "CliD1-amended" {
		t.Fatalf("doctor D3 clinical = %q, want amended", s)
	}

	// Denied: dosage (write permission is doctor-only).
	err = sc.Patient.UpdateSource("D1", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("whatever I want")})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Patient.SyncShares(ctx, "D1")
	if err == nil {
		t.Fatal("dosage update by patient should be denied")
	}

	// The patient's replica rolled back: D13 must still agree with the
	// doctor's D31.
	d13, _ := sc.Patient.View(workload.ShareIDD13)
	d31, _ := sc.Doctor.View(workload.ShareIDD13)
	if d13.Hash() != d31.Hash() {
		t.Fatalf("replicas diverged after denial")
	}
}

// TestPermissionGrant verifies the Fig. 3 narrative: the doctor (authority
// on D13&D31) grants the patient write access to dosage, after which the
// patient's dosage update succeeds.
func TestPermissionGrant(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()

	err = sc.Doctor.SetPermission(ctx, workload.ShareIDD13, workload.ColDosage,
		[]identity.Address{sc.Doctor.Address(), sc.Patient.Address()})
	if err != nil {
		t.Fatalf("granting permission: %v", err)
	}

	err = sc.Patient.UpdateSource("D1", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("half tablet every 4h")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Patient.SyncShares(ctx, "D1")
	if err != nil {
		t.Fatalf("granted update still denied: %v", err)
	}
	if err := sc.Patient.WaitFinal(ctx, workload.ShareIDD13, props[0].Seq); err != nil {
		t.Fatal(err)
	}
	d3, _ := sc.Doctor.Source("D3")
	got := mustValue(t, d3, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "half tablet every 4h" {
		t.Fatalf("doctor D3 dosage = %q, want patient's update", s)
	}

	// Only the authority may change permissions: the patient cannot.
	err = sc.Patient.SetPermission(ctx, workload.ShareIDD13, workload.ColMedication,
		[]identity.Address{sc.Patient.Address()})
	if err == nil {
		t.Fatal("non-authority permission change should fail")
	}
}

// TestCascade verifies Fig. 5 step 6: a doctor-side medication rename
// affects both D31 (field update, reaching the patient) and D32
// (structural update, reaching the researcher), because the medication
// attribute overlaps both views of D3.
func TestCascade(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()

	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(189)},
			map[string]reldb.Value{workload.ColMedication: reldb.S("Bupropion")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatalf("doctor sync: %v", err)
	}
	if len(props) != 2 {
		t.Fatalf("medication rename should touch both shares, got %+v", props)
	}
	for _, pr := range props {
		if err := sc.Doctor.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			t.Fatalf("waiting %s: %v", pr.ShareID, err)
		}
	}

	// Patient sees the rename as a plain field update.
	d1, _ := sc.Patient.Source("D1")
	got := mustValue(t, d1, reldb.Row{reldb.I(189)}, workload.ColMedication)
	if s, _ := got.Str(); s != "Bupropion" {
		t.Fatalf("patient D1 medication = %q, want Bupropion", s)
	}

	// Researcher sees a delete+insert on its medication-keyed D2: the old
	// key is gone, the new key carries the old mechanism and a pending
	// mode of action.
	d2, _ := sc.Researcher.Source("D2")
	if d2.Has(reldb.Row{reldb.S("Wellbutrin")}) {
		t.Fatal("researcher D2 still has the old medication key")
	}
	row, ok := d2.Get(reldb.Row{reldb.S("Bupropion")})
	if !ok {
		t.Fatal("researcher D2 lacks the renamed medication")
	}
	mode := row[d2.Schema().ColumnIndex(workload.ColMode)]
	if s, _ := mode.Str(); s != "MoA-pending" {
		t.Fatalf("mode of action = %q, want MoA-pending default", s)
	}
}

// TestViewEditReachesSiblingShare: Fig. 5 step 6 for an entry-level
// edit. The doctor renames patient 188's medication on D31 with
// UpdateView; the edit lands in D3, which D32 also shows, so the doctor
// re-derives D32 and the rename reaches the researcher's D23 and D2.
func TestViewEditReachesSiblingShare(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewFig1Scenario(ctx, fastNet(), 0, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()
	meta, err := sc.Researcher.Meta(workload.ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Doctor.UpdateView(ctx, workload.ShareIDD13, func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)}, map[string]reldb.Value{workload.ColMedication: reldb.S("Naproxen")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Doctor.WaitFinal(ctx, workload.ShareIDD13, res.Seq); err != nil {
		t.Fatal(err)
	}
	checkRenameReachedResearcher(t, ctx, sc, meta.Seq+1)
}

// checkRenameReachedResearcher waits for D23&D32 to finalize at seq and
// checks the researcher's D23 and D2 carry the rename of Ibuprofen to
// Naproxen.
func checkRenameReachedResearcher(t *testing.T, ctx context.Context, sc *Fig1Scenario, seq uint64) {
	t.Helper()
	if err := sc.Researcher.WaitFinal(ctx, workload.ShareIDD23, seq); err != nil {
		t.Fatal(err)
	}
	d23, err := sc.Researcher.View(workload.ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := sc.Researcher.Source("D2")
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]*reldb.Table{"D23": d23, "D2": d2} {
		if !tbl.Has(reldb.Row{reldb.S("Naproxen")}) || tbl.Has(reldb.Row{reldb.S("Ibuprofen")}) {
			t.Fatalf("researcher's %s does not show the rename of Ibuprofen to Naproxen", name)
		}
	}
}

// TestJoinShareWorkflow drives the prescriptions ⋈ formulary share end
// to end: a doctor-side dosage edit must reach the pharmacist's
// prescriptions through JoinLens.PutDelta (the join lens's backward
// delta path on a live network), a pharmacist-side edit must flow the
// other way, and a doctor-side mechanism edit — an edit to a joined-in
// reference column — must be rejected at the pharmacist's put and
// rolled back on the doctor.
func TestJoinShareWorkflow(t *testing.T) {
	ctx := testCtx(t)
	sc := newJoinShareScenario(ctx, t, fastNet(), 24, 7)

	// The two independently derived replicas agree from the start (the
	// formulary reproduces the generator's a1 → a5 dependency).
	rxf, err := sc.Pharmacist.View(shareIDRx)
	if err != nil {
		t.Fatal(err)
	}
	d3f, err := sc.Doctor.View(shareIDRx)
	if err != nil {
		t.Fatal(err)
	}
	if rxf.Hash() != d3f.Hash() {
		t.Fatal("join and projection replicas disagree at registration")
	}

	// Doctor edits a dosage in D3; the pharmacist's event loop embeds the
	// incoming changeset through the join lens's native PutDelta.
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("one tablet every 12h")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatalf("doctor sync: %v", err)
	}
	if len(props) != 1 {
		t.Fatalf("expected one proposal, got %+v", props)
	}
	if err := sc.Doctor.WaitFinal(ctx, shareIDRx, props[0].Seq); err != nil {
		t.Fatal(err)
	}
	rx, err := sc.Pharmacist.Source("RX")
	if err != nil {
		t.Fatal(err)
	}
	got := mustValue(t, rx, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "one tablet every 12h" {
		t.Fatalf("pharmacist RX dosage = %q, want doctor's edit", s)
	}

	// Pharmacist edits a dosage on the shared view directly (UpdateView:
	// delta put into RX, then proposal); the doctor applies it into D3.
	_, err = sc.Pharmacist.UpdateView(ctx, shareIDRx, func(v *reldb.Table) error {
		return v.Update(reldb.Row{reldb.I(189)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("500 mg at lunch")})
	})
	if err != nil {
		t.Fatalf("pharmacist view edit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		d3, err := sc.Doctor.Source("D3")
		if err != nil {
			return false
		}
		v, err := d3.Value(reldb.Row{reldb.I(189)}, workload.ColDosage)
		if err != nil {
			return false
		}
		s, _ := v.Str()
		return s == "500 mg at lunch"
	})

	// Doctor edits a mechanism — visible in its D3, but a *reference*
	// column of the pharmacist's join. The contract admits it (the doctor
	// holds the permission); the pharmacist's put rejects it row-by-row,
	// and the rejection rolls the doctor's replica back.
	err = sc.Doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColMechanism: reldb.S("MeA-forged")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Doctor.UpdateView(ctx, shareIDRx, nil); err != nil {
		t.Fatalf("propose: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		for _, h := range sc.Doctor.History() {
			if h.Kind == "rolled-back" && h.ShareID == shareIDRx {
				return true
			}
		}
		return false
	})
	// The pharmacist's replica still carries the true formulary value.
	rxf, err = sc.Pharmacist.View(shareIDRx)
	if err != nil {
		t.Fatal(err)
	}
	got = mustValue(t, rxf, reldb.Row{reldb.I(188)}, workload.ColMechanism)
	if s, _ := got.Str(); s == "MeA-forged" {
		t.Fatal("reference-column edit leaked into the pharmacist's replica")
	}
	// And after the rollback both replicas agree again.
	waitFor(t, 30*time.Second, func() bool {
		rxf, err1 := sc.Pharmacist.View(shareIDRx)
		d3f, err2 := sc.Doctor.View(shareIDRx)
		return err1 == nil && err2 == nil && rxf.Hash() == d3f.Hash()
	})
}

// joinShareScenario is the prescriptions ⋈ formulary instantiation: a
// pharmacist holds only the prescription slice (a0, a1, a4) plus a
// read-only formulary reference and derives its replica of the shared
// view by *joining* the two (each prescription enriched with its
// mechanism of action); the doctor derives the same view by projection
// from its richer D3. Incoming updates on the pharmacist side therefore
// embed through JoinLens.PutDelta — the join lens's backward path,
// exercised end to end rather than only in microbenches.
type joinShareScenario struct {
	Network    *Network
	Pharmacist *core.Peer
	Doctor     *core.Peer
}

// shareIDRx identifies the prescriptions⋈formulary share.
const shareIDRx = "RXF&D3F"

// rxViewCols are the shared view's columns: the prescription slice plus
// the joined-in mechanism (the column order of prescriptions ⋈
// formulary).
var rxViewCols = []string{
	workload.ColPatientID, workload.ColMedication,
	workload.ColDosage, workload.ColMechanism,
}

// formulary is the reference table the join reads: each medication the
// records name, mapped to its mechanism of action (the a1 → a5
// dependency every generated record obeys).
func formulary(full *reldb.Table) (*reldb.Table, error) {
	return full.Project("formulary", []string{workload.ColMedication, workload.ColMechanism}, []string{workload.ColMedication})
}

// newJoinShareScenario builds the pharmacist/doctor pair on a fresh
// network with nRecords synthetic records under seed. The doctor may
// write dosage and mechanism; the pharmacist only dosage (it holds no
// mechanism data of its own — the reference is read-only).
func newJoinShareScenario(ctx context.Context, t *testing.T, cfg NetworkConfig, nRecords int, seed int64) *joinShareScenario {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Stop)
	full := workload.Generate("full", nRecords, seed)
	ref, err := formulary(full)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := full.Project("RX", workload.PrescriptionCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := full.Project("D3", workload.DoctorCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	pharmacist, err := nw.NewPeer("Pharmacist", 0)
	if err != nil {
		t.Fatal(err)
	}
	doctor, err := nw.NewPeer("Doctor", nw.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	pharmacist.DB().PutTable(rx)
	doctor.DB().PutTable(d3)

	err = pharmacist.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          shareIDRx,
		SourceTable: "RX",
		Lens:        bx.Join("RXF", ref),
		ViewName:    "RXF",
		Peers:       []identity.Address{pharmacist.Address(), doctor.Address()},
		WritePerm: map[string][]identity.Address{
			workload.ColDosage:    {pharmacist.Address(), doctor.Address()},
			workload.ColMechanism: {doctor.Address()},
		},
		Authority: doctor.Address(),
	})
	if err != nil {
		t.Fatalf("registering %s: %v", shareIDRx, err)
	}
	if _, err := doctor.WaitForShare(ctx, shareIDRx); err != nil {
		t.Fatal(err)
	}
	if err := doctor.AttachShare(shareIDRx, "D3", bx.Project("D3F", rxViewCols, nil), "D3F"); err != nil {
		t.Fatal(err)
	}
	return &joinShareScenario{Network: nw, Pharmacist: pharmacist, Doctor: doctor}
}

// restartPeer stops the named peer and starts it again over image, a
// clone of its store's filesystem: the way a medshared process restarts
// over its data dir. The new peer has the same name, so the same
// identity and data endpoint; the caller attaches its shares again,
// which restores them from the store.
func restartPeer(nw *Network, old *core.Peer, name string, nodeIndex int, image *store.MemFS) (*core.Peer, error) {
	old.Stop()
	if tt := nw.tcps[nw.PeerEndpoint(name)]; tt != nil {
		tt.Close()
	}
	if st := nw.peerStores[name]; st != nil {
		_ = st.Close() // a crashed process never closes its store
	}
	st, err := store.Open(store.Options{FS: image})
	if err != nil {
		return nil, err
	}
	nw.peerFS[name] = image
	return nw.NewPeerWithOptions(name, nodeIndex, PeerOptions{Store: st})
}
