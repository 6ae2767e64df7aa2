package medshare

import (
	"context"
	"fmt"

	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Fig1Scenario is the running instantiation of the paper's Fig. 1 data
// distribution on one network: the Patient, Doctor and Researcher with
// their local tables D1, D3 and D2, and the two shares the Doctor
// registers with the write permissions of Fig. 3 (the layout is in
// internal/workload).
type Fig1Scenario struct {
	Network    *Network
	Patient    *core.Peer
	Doctor     *core.Peer
	Researcher *core.Peer
}

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
	if err := bindFig1(ctx, full, patient, doctor, researcher); err != nil {
		return nil, err
	}
	return &Fig1Scenario{Network: nw, Patient: patient, Doctor: doctor, Researcher: researcher}, nil
}

// bindFig1 gives each stakeholder its Fig. 1 slice of the full records
// as a local table, registers both shares from the doctor (Section
// III-C2, deriving D31 and D32 from D3) and attaches the counterparties'
// sides with their own lenses.
func bindFig1(ctx context.Context, full *reldb.Table, patient, doctor, researcher *core.Peer) error {
	for _, p := range []*core.Peer{patient, doctor, researcher} {
		t, err := workload.RoleTable(full, p.Name())
		if err != nil {
			return err
		}
		p.DB().PutTable(t)
	}
	err := doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          workload.ShareIDD13,
		SourceTable: "D3",
		Lens:        workload.LensD31(),
		ViewName:    "D31",
		Peers:       []identity.Address{patient.Address(), doctor.Address()},
		WritePerm:   workload.PermD13(patient.Address(), doctor.Address()),
		Authority:   doctor.Address(),
	})
	if err != nil {
		return fmt.Errorf("registering %s: %w", workload.ShareIDD13, err)
	}
	err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          workload.ShareIDD23,
		SourceTable: "D3",
		Lens:        workload.LensD32(),
		ViewName:    "D32",
		Peers:       []identity.Address{researcher.Address(), doctor.Address()},
		WritePerm:   workload.PermD23(doctor.Address(), researcher.Address()),
		Authority:   researcher.Address(),
	})
	if err != nil {
		return fmt.Errorf("registering %s: %w", workload.ShareIDD23, err)
	}

	// The registration block must reach a counterparty's node before it
	// can bind its side.
	if _, err := patient.WaitForShare(ctx, workload.ShareIDD13); err != nil {
		return err
	}
	if err := patient.AttachShare(workload.ShareIDD13, "D1", workload.LensD13(), "D13"); err != nil {
		return err
	}
	if _, err := researcher.WaitForShare(ctx, workload.ShareIDD23); err != nil {
		return err
	}
	return researcher.AttachShare(workload.ShareIDD23, "D2", workload.LensD23(), "D23")
}

// Stop shuts the scenario's network down.
func (sc *Fig1Scenario) Stop() { sc.Network.Stop() }
