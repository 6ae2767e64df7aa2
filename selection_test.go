package medshare

import (
	"testing"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// TestSelectionShare exercises horizontal fine-graining end to end: a
// doctor shares with patient 188 only that patient's row (selection),
// projected to the dosage columns (composition) — the other patients'
// rows are invisible to the share and untouched by its updates.
func TestSelectionShare(t *testing.T) {
	ctx := testCtx(t)
	nw, err := NewNetwork(fastNet())
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()

	doctor, err := nw.NewPeer("Doctor", 0)
	if err != nil {
		t.Fatal(err)
	}
	patient, err := nw.NewPeer("Patient188", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Doctor holds many patients.
	full := GenerateRecords("D3", 20, 5)
	doctor.DB().PutTable(full)

	// Patient 188 holds only its own slice.
	ownRow, ok := full.Get(reldb.Row{reldb.I(188)})
	if !ok {
		t.Fatal("row 188 missing")
	}
	patSchema, err := full.Schema().Project("mine", []string{ColPatientID, ColMedication, ColDosage}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mine := reldb.MustNewTable(patSchema)
	idx := full.Schema()
	mine.MustInsert(reldb.Row{ownRow[idx.ColumnIndex(ColPatientID)], ownRow[idx.ColumnIndex(ColMedication)], ownRow[idx.ColumnIndex(ColDosage)]})
	patient.DB().PutTable(mine)

	// Doctor's lens: select row 188, then project the agreed columns.
	shareCols := []string{ColPatientID, ColMedication, ColDosage}
	doctorLens := bx.Compose(
		bx.Select("only188", reldb.Eq(ColPatientID, reldb.I(188))),
		bx.Project("docV", shareCols, nil),
	)
	// Patient's source is already just its row; a plain projection works.
	patientLens := bx.Project("patV", shareCols, nil)

	err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID: "row188", SourceTable: "D3", Lens: doctorLens, ViewName: "docV",
		Peers: []identity.Address{doctor.Address(), patient.Address()},
		WritePerm: map[string][]identity.Address{
			ColDosage:     {doctor.Address()},
			ColMedication: {doctor.Address()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := patient.AttachShare("row188", "mine", patientLens, "patV"); err != nil {
		t.Fatal(err)
	}

	// The share exposes exactly one row.
	v, err := doctor.View("row188")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("share rows = %d, want 1", v.Len())
	}

	// Doctor changes patient 188's dosage — propagates.
	err = doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{ColDosage: reldb.S("selection-dose")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 {
		t.Fatalf("props = %+v", props)
	}
	if err := doctor.WaitFinal(ctx, "row188", props[0].Seq); err != nil {
		t.Fatal(err)
	}
	got, _ := patient.Source("mine")
	val := mustValue(t, got, reldb.Row{reldb.I(188)}, ColDosage)
	if s, _ := val.Str(); s != "selection-dose" {
		t.Fatalf("patient dosage = %q", s)
	}

	// Changing a DIFFERENT patient's dosage does not touch the share.
	err = doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(189)},
			map[string]reldb.Value{ColDosage: reldb.S("other-dose")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err = doctor.SyncShares(ctx, "D3")
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 0 {
		t.Fatalf("unrelated row change proposed %+v", props)
	}
}

// TestNetworkConfigValidation covers the facade bootstrap paths.
func TestNetworkConfigValidation(t *testing.T) {
	nw, err := NewNetwork(NetworkConfig{DataTransport: "carrier-pigeon"})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if nw.Nodes() != 1 {
		t.Fatalf("default nodes = %d", nw.Nodes())
	}
	if _, err := nw.NewPeer("x", 9); err == nil {
		t.Fatal("out-of-range node index accepted")
	}
	if _, err := nw.NewPeer("x", 0); err == nil {
		t.Fatal("unknown data transport accepted")
	}
}
