package workload

import (
	"testing"

	"medshare/internal/reldb"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("full", 50, 7)
	b := Generate("full", 50, 7)
	if a.Hash() != b.Hash() {
		t.Fatal("same seed must generate identical data")
	}
	c := Generate("full", 50, 8)
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds should generate different data")
	}
}

func TestGenerateShape(t *testing.T) {
	tbl := Generate("full", 25, 1)
	if tbl.Len() != 25 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	if len(tbl.Schema().Columns) != 7 {
		t.Fatalf("columns = %d", len(tbl.Schema().Columns))
	}
	// Patient IDs start at 188 (Fig. 1).
	if !tbl.Has(reldb.Row{reldb.I(188)}) || !tbl.Has(reldb.Row{reldb.I(212)}) {
		t.Fatal("patient ID range wrong")
	}
}

func TestGenerateFunctionalDependency(t *testing.T) {
	// a1 -> a5, a6 must hold or the medication-keyed views are undefined.
	tbl := Generate("full", 300, 3)
	mech := make(map[string]string)
	mode := make(map[string]string)
	for _, r := range tbl.RowsCanonical() {
		med, _ := r[1].Str()
		me, _ := r[5].Str()
		mo, _ := r[6].Str()
		if prev, ok := mech[med]; ok && prev != me {
			t.Fatalf("medication %s has two mechanisms", med)
		}
		if prev, ok := mode[med]; ok && prev != mo {
			t.Fatalf("medication %s has two modes", med)
		}
		mech[med] = me
		mode[med] = mo
	}
}

func TestGenerateSupportsAllFig1Views(t *testing.T) {
	tbl := Generate("full", 100, 5)
	if _, err := tbl.Project("D1", PatientCols, nil); err != nil {
		t.Fatalf("D1: %v", err)
	}
	if _, err := tbl.Project("D2", ResearcherCols, []string{ColMedication}); err != nil {
		t.Fatalf("D2: %v", err)
	}
	if _, err := tbl.Project("D3", DoctorCols, nil); err != nil {
		t.Fatalf("D3: %v", err)
	}
	if _, err := tbl.Project("D13", ShareD13Cols, nil); err != nil {
		t.Fatalf("D13: %v", err)
	}
	if _, err := tbl.Project("D23", ShareD23Cols, []string{ColMedication}); err != nil {
		t.Fatalf("D23: %v", err)
	}
}

func TestFig1DataExact(t *testing.T) {
	tbl := Fig1Data("full")
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	r, ok := tbl.Get(reldb.Row{reldb.I(188)})
	if !ok {
		t.Fatal("row 188 missing")
	}
	med, _ := r[1].Str()
	addr, _ := r[3].Str()
	dose, _ := r[4].Str()
	if med != "Ibuprofen" || addr != "Sapporo" || dose != "one tablet every 4h" {
		t.Fatalf("row 188 = %v", r)
	}
	r, _ = tbl.Get(reldb.Row{reldb.I(189)})
	if med, _ := r[1].Str(); med != "Wellbutrin" {
		t.Fatalf("row 189 = %v", r)
	}
}
