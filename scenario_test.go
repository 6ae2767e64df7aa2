package medshare

import (
	"context"
	"testing"
	"time"

	"medshare/internal/reldb"
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
	v, err := tbl.Value(key, col)
	if err != nil {
		t.Fatalf("reading %s of %v: %v", col, key, err)
	}
	return v
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
	for id, other := range map[string]*Peer{ShareIDD13: sc.Patient, ShareIDD23: sc.Researcher} {
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
	if len(props) != 1 || props[0].ShareID != ShareIDD23 {
		t.Fatalf("expected one proposal on %s, got %+v", ShareIDD23, props)
	}

	// Steps 3-5 happen in the doctor's event loop; wait for finalization
	// (all peers acked).
	if err := sc.Researcher.WaitFinal(ctx, ShareIDD23, props[0].Seq); err != nil {
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
	d32, err := sc.Doctor.View(ShareIDD23)
	if err != nil {
		t.Fatal(err)
	}
	d23, err := sc.Researcher.View(ShareIDD23)
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
	if len(props) != 1 || props[0].ShareID != ShareIDD13 {
		t.Fatalf("expected one proposal on %s, got %+v", ShareIDD13, props)
	}
	if err := sc.Doctor.WaitFinal(ctx, ShareIDD13, props[0].Seq); err != nil {
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
	if err := sc.Patient.WaitFinal(ctx, ShareIDD13, props[0].Seq); err != nil {
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
	d13, _ := sc.Patient.View(ShareIDD13)
	d31, _ := sc.Doctor.View(ShareIDD13)
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

	err = sc.Doctor.SetPermission(ctx, ShareIDD13, workload.ColDosage,
		[]Address{sc.Doctor.Address(), sc.Patient.Address()})
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
	if err := sc.Patient.WaitFinal(ctx, ShareIDD13, props[0].Seq); err != nil {
		t.Fatal(err)
	}
	d3, _ := sc.Doctor.Source("D3")
	got := mustValue(t, d3, reldb.Row{reldb.I(188)}, workload.ColDosage)
	if s, _ := got.Str(); s != "half tablet every 4h" {
		t.Fatalf("doctor D3 dosage = %q, want patient's update", s)
	}

	// Only the authority may change permissions: the patient cannot.
	err = sc.Patient.SetPermission(ctx, ShareIDD13, workload.ColMedication,
		[]Address{sc.Patient.Address()})
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

// TestJoinShareWorkflow drives the prescriptions ⋈ formulary share end
// to end: a doctor-side dosage edit must reach the pharmacist's
// prescriptions through JoinLens.PutDelta (the join lens's backward
// delta path on a live network), a pharmacist-side edit must flow the
// other way, and a doctor-side mechanism edit — an edit to a joined-in
// reference column — must be rejected at the pharmacist's put and
// rolled back on the doctor.
func TestJoinShareWorkflow(t *testing.T) {
	ctx := testCtx(t)
	sc, err := NewJoinShareScenario(ctx, fastNet(), 24, 7)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	defer sc.Stop()

	// The two independently derived replicas agree from the start (the
	// formulary reproduces the generator's a1 → a5 dependency).
	rxf, err := sc.Pharmacist.View(ShareIDRx)
	if err != nil {
		t.Fatal(err)
	}
	d3f, err := sc.Doctor.View(ShareIDRx)
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
	if err := sc.Doctor.WaitFinal(ctx, ShareIDRx, props[0].Seq); err != nil {
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
	_, err = sc.Pharmacist.UpdateView(ctx, ShareIDRx, func(v *reldb.Table) error {
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
	if _, err := sc.Doctor.ProposeUpdate(ctx, ShareIDRx); err != nil {
		t.Fatalf("propose: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		for _, h := range sc.Doctor.History() {
			if h.Kind == "rolled-back" && h.ShareID == ShareIDRx {
				return true
			}
		}
		return false
	})
	// The pharmacist's replica still carries the true formulary value.
	rxf, err = sc.Pharmacist.View(ShareIDRx)
	if err != nil {
		t.Fatal(err)
	}
	got = mustValue(t, rxf, reldb.Row{reldb.I(188)}, workload.ColMechanism)
	if s, _ := got.Str(); s == "MeA-forged" {
		t.Fatal("reference-column edit leaked into the pharmacist's replica")
	}
	// And after the rollback both replicas agree again.
	waitFor(t, 30*time.Second, func() bool {
		rxf, err1 := sc.Pharmacist.View(ShareIDRx)
		d3f, err2 := sc.Doctor.View(ShareIDRx)
		return err1 == nil && err2 == nil && rxf.Hash() == d3f.Hash()
	})
}
