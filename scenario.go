package medshare

import (
	"context"
	"fmt"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Fig1Scenario is the running instantiation of the paper's Fig. 1 data
// distribution: three stakeholders over one network, with local tables
//
//	Patient    D1  = a0-a4
//	Researcher D2  = a1, a5, a6 (keyed by medication name)
//	Doctor     D3  = a0-a2, a4, a5
//
// and two registered shares
//
//	"D13&D31" (Patient <-> Doctor):    a0, a1, a2, a4
//	"D23&D32" (Researcher <-> Doctor): a1, a5
//
// with the write permissions of Fig. 3: on D13&D31 the doctor may update
// everything and the patient only clinical data; on D23&D32 medication
// name is writable by both and mechanism of action by the researcher.
type Fig1Scenario struct {
	Network    *Network
	Patient    *core.Peer
	Doctor     *core.Peer
	Researcher *core.Peer
	// ShareD13 and ShareD23 are the two share IDs.
	ShareD13 string
	ShareD23 string
}

// Share identifiers used by the scenario.
const (
	ShareIDD13 = "D13&D31"
	ShareIDD23 = "D23&D32"
)

// NewFig1Scenario builds the scenario on a fresh network with nRecords
// synthetic full records (nRecords <= 0 loads the exact two rows of
// Fig. 1). Shares are registered by the doctor, as in Section III-C2.
func NewFig1Scenario(ctx context.Context, cfg NetworkConfig, nRecords int, seed int64) (*Fig1Scenario, error) {
	nw, err := NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	sc, err := PopulateFig1(ctx, nw, nRecords, seed)
	if err != nil {
		nw.Stop()
		return nil, err
	}
	return sc, nil
}

// PopulateFig1 builds the Fig. 1 stakeholders and shares on an existing
// network.
func PopulateFig1(ctx context.Context, nw *Network, nRecords int, seed int64) (*Fig1Scenario, error) {
	var full *reldb.Table
	if nRecords <= 0 {
		full = workload.Fig1Data("full")
	} else {
		full = workload.Generate("full", nRecords, seed)
	}

	patient, err := nw.NewPeer("Patient", 0)
	if err != nil {
		return nil, err
	}
	doctor, err := nw.NewPeer("Doctor", nw.Nodes()-1)
	if err != nil {
		return nil, err
	}
	researcher, err := nw.NewPeer("Researcher", nw.Nodes()/2)
	if err != nil {
		return nil, err
	}

	// Local full tables: each stakeholder holds its Fig. 1 slice of the
	// full records in its own database.
	d1, err := full.Project("D1", workload.PatientCols, nil)
	if err != nil {
		return nil, err
	}
	d2, err := full.Project("D2", workload.ResearcherCols, []string{workload.ColMedication})
	if err != nil {
		return nil, err
	}
	d3, err := full.Project("D3", workload.DoctorCols, nil)
	if err != nil {
		return nil, err
	}
	patient.DB().PutTable(d1)
	researcher.DB().PutTable(d2)
	doctor.DB().PutTable(d3)

	sc := &Fig1Scenario{
		Network: nw, Patient: patient, Doctor: doctor, Researcher: researcher,
		ShareD13: ShareIDD13, ShareD23: ShareIDD23,
	}

	// Fig. 3 permissions for D13&D31: Doctor everywhere, Patient only on
	// clinical data.
	permD13 := map[string][]identity.Address{
		workload.ColPatientID:  {doctor.Address()},
		workload.ColMedication: {doctor.Address()},
		workload.ColDosage:     {doctor.Address()},
		workload.ColClinical:   {patient.Address(), doctor.Address()},
	}
	// Fig. 3 permissions for D23&D32: medication by both, mechanism by
	// the researcher.
	permD23 := map[string][]identity.Address{
		workload.ColMedication: {doctor.Address(), researcher.Address()},
		workload.ColMechanism:  {researcher.Address()},
	}

	// The doctor initiates both shares (Section III-C2), deriving D31 and
	// D32 from D3.
	err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          ShareIDD13,
		SourceTable: "D3",
		Lens:        LensD31(),
		ViewName:    "D31",
		Peers:       []identity.Address{patient.Address(), doctor.Address()},
		WritePerm:   permD13,
		Authority:   doctor.Address(),
	})
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", ShareIDD13, err)
	}
	err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          ShareIDD23,
		SourceTable: "D3",
		Lens:        LensD32(),
		ViewName:    "D32",
		Peers:       []identity.Address{researcher.Address(), doctor.Address()},
		WritePerm:   permD23,
		Authority:   researcher.Address(),
	})
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", ShareIDD23, err)
	}

	// Counterparties bind their side of each share with their own lenses.
	// On multi-node networks the registration block must gossip to their
	// nodes first.
	if _, err := patient.WaitForShare(ctx, ShareIDD13); err != nil {
		return nil, err
	}
	if err := patient.AttachShare(ShareIDD13, "D1", LensD13(), "D13"); err != nil {
		return nil, err
	}
	if _, err := researcher.WaitForShare(ctx, ShareIDD23); err != nil {
		return nil, err
	}
	if err := researcher.AttachShare(ShareIDD23, "D2", LensD23(), "D23"); err != nil {
		return nil, err
	}
	return sc, nil
}

// LensD13 derives D13 (a0, a1, a2, a4) from the patient's D1. The patient
// side accepts doctor-initiated row creation and deletion: a new patient
// row arriving through the share materializes in D1 with a placeholder
// address (the only D1 attribute hidden from the view).
func LensD13() Lens {
	return bx.Project("D13", workload.ShareD13Cols, nil).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{
			workload.ColAddress: reldb.S("unknown"),
		})
}

// LensD31 derives D31 (a0, a1, a2, a4) from the doctor's D3. Structural
// edits through the view are forbidden on the doctor side: the patient
// lacks write permission for them anyway, and the doctor edits D3
// directly.
func LensD31() Lens {
	return bx.Project("D31", workload.ShareD13Cols, nil)
}

// LensD23 derives D23 (a1, a5) from the researcher's D2. The researcher
// side accepts doctor-initiated medication renames (a delete+insert on
// the medication-keyed view); the hidden mode-of-action column defaults
// until the researcher fills it in.
func LensD23() Lens {
	return bx.Project("D23", workload.ShareD23Cols, []string{workload.ColMedication}).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{
			workload.ColMode: reldb.S("MoA-pending"),
		})
}

// LensD32 derives D32 (a1, a5) from the doctor's D3. The view key is the
// medication name — not D3's key — so several patient rows on the same
// medication collapse into one shared row, exactly Fig. 1's D32.
func LensD32() Lens {
	return bx.Project("D32", workload.ShareD23Cols, []string{workload.ColMedication})
}

// Stop shuts the scenario's network down.
func (sc *Fig1Scenario) Stop() { sc.Network.Stop() }
