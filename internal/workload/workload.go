// Package workload holds the paper's Fig. 1 (its tables, lenses and write
// permissions) and generates the synthetic medical data the benchmark,
// examples and tests run on, following Fig. 1's schema exactly:
//
//	a0 Patient ID | a1 Medication Name | a2 Clinical Data | a3 Address |
//	a4 Dosage     | a5 Mechanism of Action | a6 Mode of Action
//
// The paper defers real patient data to future work (Section VI); the
// generator is deterministic under a seed so every run is
// reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"medshare/internal/reldb"
)

// Attribute names of the full medical record (Fig. 1).
const (
	ColPatientID  = "patient_id"
	ColMedication = "medication_name"
	ColClinical   = "clinical_data"
	ColAddress    = "address"
	ColDosage     = "dosage"
	ColMechanism  = "mechanism_of_action"
	ColMode       = "mode_of_action"
)

// medications and cities seed realistic-looking values.
var medications = []string{
	"Ibuprofen", "Wellbutrin", "Amoxicillin", "Lisinopril", "Metformin",
	"Atorvastatin", "Omeprazole", "Levothyroxine", "Amlodipine", "Gabapentin",
	"Sertraline", "Prednisone", "Azithromycin", "Warfarin", "Insulin",
}

var cities = []string{
	"Sapporo", "Osaka", "Tokyo", "Kyoto", "Nagoya", "Fukuoka", "Sendai",
	"Hiroshima", "Yokohama", "Kobe",
}

var dosages = []string{
	"one tablet every 4h", "100 mg twice daily", "250 mg three times daily",
	"10 mg at bedtime", "two tablets every 6h", "500 mg once daily",
	"5 ml every 8h", "20 mg in the morning",
}

// FullSchema returns the schema of the full medical record table.
func FullSchema(name string) reldb.Schema {
	return reldb.Schema{
		Name: name,
		Columns: []reldb.Column{
			{Name: ColPatientID, Type: reldb.KindInt},
			{Name: ColMedication, Type: reldb.KindString},
			{Name: ColClinical, Type: reldb.KindString},
			{Name: ColAddress, Type: reldb.KindString},
			{Name: ColDosage, Type: reldb.KindString},
			{Name: ColMechanism, Type: reldb.KindString},
			{Name: ColMode, Type: reldb.KindString},
		},
		Key: []string{ColPatientID},
	}
}

// Generate builds a full-records table with n rows, deterministic under
// seed. Patient IDs start at 188 in homage to Fig. 1. Mechanism and mode
// of action are functions of the medication name — the functional
// dependency (a1 → a5, a6) that Fig. 1 exhibits and that makes the
// medication-keyed views D2/D23/D32 well defined.
func Generate(name string, n int, seed int64) *reldb.Table {
	rng := rand.New(rand.NewSource(seed))
	// Fix the per-medication pharmacology once, so every row of the same
	// medication agrees on a5/a6.
	mech := make(map[string]string, len(medications))
	mode := make(map[string]string, len(medications))
	for _, med := range medications {
		mech[med] = fmt.Sprintf("MeA-%s-%d", med, rng.Intn(1000))
		mode[med] = fmt.Sprintf("MoA-%s-%d", med, rng.Intn(1000))
	}
	t := reldb.MustNewTable(FullSchema(name))
	for i := 0; i < n; i++ {
		med := medications[rng.Intn(len(medications))]
		row := reldb.Row{
			reldb.I(int64(188 + i)),
			reldb.S(med),
			reldb.S(fmt.Sprintf("CliD%d", i+1)),
			reldb.S(cities[rng.Intn(len(cities))]),
			reldb.S(dosages[rng.Intn(len(dosages))]),
			reldb.S(mech[med]),
			reldb.S(mode[med]),
		}
		t.MustInsert(row)
	}
	return t
}

// Fig1Data reproduces the exact two-row example of Fig. 1.
func Fig1Data(name string) *reldb.Table {
	t := reldb.MustNewTable(FullSchema(name))
	t.MustInsert(reldb.Row{
		reldb.I(188), reldb.S("Ibuprofen"), reldb.S("CliD1"), reldb.S("Sapporo"),
		reldb.S("one tablet every 4h"), reldb.S("MeA1"), reldb.S("MoA1"),
	})
	t.MustInsert(reldb.Row{
		reldb.I(189), reldb.S("Wellbutrin"), reldb.S("CliD2"), reldb.S("Osaka"),
		reldb.S("100 mg twice daily"), reldb.S("MeA2"), reldb.S("MoA2"),
	})
	return t
}

// The prescriptions ⋈ formulary workload: a pharmacist-style peer holds
// only the prescription slice of the record (patient, medication,
// dosage) plus a read-only formulary — the per-medication pharmacology
// reference — and shares the *joined* view (each prescription enriched
// with its mechanism of action). The counterparty derives the same view
// by projection from its richer table, so the share exercises the join
// lens's backward (PutDelta) path end to end.

// PrescriptionCols are the prescription slice of the record: a0, a1, a4.
var PrescriptionCols = []string{ColPatientID, ColMedication, ColDosage}

// Columns held by each stakeholder's local database in Fig. 1.
var (
	// PatientCols: a0-a4 (table D1).
	PatientCols = []string{ColPatientID, ColMedication, ColClinical, ColAddress, ColDosage}
	// ResearcherCols: a1, a5, a6 (table D2), keyed by medication name.
	ResearcherCols = []string{ColMedication, ColMechanism, ColMode}
	// DoctorCols: a0-a2, a4, a5 (table D3).
	DoctorCols = []string{ColPatientID, ColMedication, ColClinical, ColDosage, ColMechanism}
	// ShareD13Cols: a0, a1, a2, a4 (tables D13/D31, Patient-Doctor).
	ShareD13Cols = []string{ColPatientID, ColMedication, ColClinical, ColDosage}
	// ShareD23Cols: a1, a5 (tables D23/D32, Researcher-Doctor).
	ShareD23Cols = []string{ColMedication, ColMechanism}
)

// The many-shares peer scenario: one hub stakeholder (a hospital-scale
// peer) holds a wide source table and maintains one pairwise share per
// counterparty, each projecting the key plus that share's own value
// column. Updates to different columns touch disjoint shares, so the
// scenario isolates the peer's fan-out scalability: how many independent
// shares it can propose, serve, and resync concurrently.

// ManyShareCol returns the value column owned by share i.
func ManyShareCol(i int) string { return fmt.Sprintf("v%d", i) }

// ManySharesSchema returns the hub's wide source schema: one int key plus
// one string value column per share.
func ManySharesSchema(name string, shares int) reldb.Schema {
	s := reldb.Schema{Name: name, Key: []string{"k"}}
	s.Columns = append(s.Columns, reldb.Column{Name: "k", Type: reldb.KindInt})
	for i := 0; i < shares; i++ {
		s.Columns = append(s.Columns, reldb.Column{Name: ManyShareCol(i), Type: reldb.KindString})
	}
	return s
}

// GenerateManyShares builds the hub's source table with n rows,
// deterministic under seed.
func GenerateManyShares(name string, shares, n int, seed int64) *reldb.Table {
	rng := rand.New(rand.NewSource(seed))
	t := reldb.MustNewTable(ManySharesSchema(name, shares))
	for r := 0; r < n; r++ {
		row := make(reldb.Row, 0, shares+1)
		row = append(row, reldb.I(int64(r)))
		for i := 0; i < shares; i++ {
			row = append(row, reldb.S(fmt.Sprintf("v%d-%d-%d", i, r, rng.Intn(1000))))
		}
		t.MustInsert(row)
	}
	return t
}
