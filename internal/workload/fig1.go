package workload

import (
	"fmt"

	"medshare/internal/bx"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// The layout of Fig. 1: each stakeholder's local table projects the
// full records onto its column set (PatientCols, ResearcherCols,
// DoctorCols), and the Doctor registers the two shares over D3 with the
// write permissions of Fig. 3.

// Share identifiers of Fig. 1.
const (
	ShareIDD13 = "D13&D31"
	ShareIDD23 = "D23&D32"
)

// RoleTable projects role's local table out of the full records: the
// Patient's D1, the Researcher's D2 or the Doctor's D3.
func RoleTable(full *reldb.Table, role string) (*reldb.Table, error) {
	switch role {
	case "Patient":
		return full.Project("D1", PatientCols, nil)
	case "Researcher":
		return full.Project("D2", ResearcherCols, []string{ColMedication})
	case "Doctor":
		return full.Project("D3", DoctorCols, nil)
	}
	return nil, fmt.Errorf("Fig. 1 roles are Doctor, Patient and Researcher (got %s)", role)
}

// LensD13 derives D13 (a0, a1, a2, a4) from the patient's D1. The patient
// side accepts doctor-initiated row creation and deletion: a new patient
// row arriving through the share materializes in D1 with a placeholder
// address (the only D1 attribute hidden from the view).
func LensD13() bx.Lens {
	return bx.Project("D13", ShareD13Cols, nil).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{ColAddress: reldb.S("unknown")})
}

// LensD31 derives D31 (a0, a1, a2, a4) from the doctor's D3. Structural
// edits through the view are forbidden on the doctor side: the patient
// lacks write permission for them anyway, and the doctor edits D3
// directly.
func LensD31() bx.Lens {
	return bx.Project("D31", ShareD13Cols, nil)
}

// LensD23 derives D23 (a1, a5) from the researcher's D2. The researcher
// side accepts doctor-initiated medication renames (a delete+insert on
// the medication-keyed view); the hidden mode-of-action column defaults
// until the researcher fills it in.
func LensD23() bx.Lens {
	return bx.Project("D23", ShareD23Cols, []string{ColMedication}).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{ColMode: reldb.S("MoA-pending")})
}

// LensD32 derives D32 (a1, a5) from the doctor's D3. The view key is the
// medication name — not D3's key — so several patient rows on the same
// medication collapse into one shared row, exactly Fig. 1's D32.
func LensD32() bx.Lens {
	return bx.Project("D32", ShareD23Cols, []string{ColMedication})
}

// PermD13 is Fig. 3's write permissions on D13&D31: the doctor may update
// every attribute, the patient only clinical data.
func PermD13(patient, doctor identity.Address) map[string][]identity.Address {
	return map[string][]identity.Address{
		ColPatientID:  {doctor},
		ColMedication: {doctor},
		ColDosage:     {doctor},
		ColClinical:   {patient, doctor},
	}
}

// PermD23 is Fig. 3's write permissions on D23&D32: medication name by
// both, mechanism of action by the researcher.
func PermD23(doctor, researcher identity.Address) map[string][]identity.Address {
	return map[string][]identity.Address{
		ColMedication: {doctor, researcher},
		ColMechanism:  {researcher},
	}
}
