package medshare

import (
	"context"
	"encoding/hex"
	"fmt"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/p2p/faultnet"
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

// JoinShareScenario is the prescriptions ⋈ formulary instantiation: a
// pharmacist holds only the prescription slice (a0, a1, a4) plus a
// read-only formulary reference and derives its replica of the shared
// view by *joining* the two (each prescription enriched with its
// mechanism of action); the doctor derives the same view by projection
// from its richer D3. Incoming updates on the pharmacist side therefore
// embed through JoinLens.PutDelta — the join lens's backward path,
// exercised end to end rather than only in microbenches.
type JoinShareScenario struct {
	Network    *Network
	Pharmacist *core.Peer
	Doctor     *core.Peer
	// ShareRx is the share ID.
	ShareRx string
}

// ShareIDRx identifies the prescriptions⋈formulary share.
const ShareIDRx = "RXF&D3F"

// RxViewCols are the shared view's columns: the prescription slice plus
// the joined-in mechanism (the column order of prescriptions ⋈
// formulary).
var RxViewCols = []string{
	workload.ColPatientID, workload.ColMedication,
	workload.ColDosage, workload.ColMechanism,
}

// LensRxJoin derives the pharmacist's replica RXF: prescriptions joined
// with the formulary generated under seed (the reference rides in the
// lens spec, so the doctor could rebuild the identical lens on-chain).
func LensRxJoin(seed int64) Lens {
	return bx.Join("RXF", workload.Formulary("formulary", seed))
}

// LensD3F derives the doctor's replica D3F by projecting D3 onto the
// shared columns.
func LensD3F() Lens {
	return bx.Project("D3F", RxViewCols, nil)
}

// NewJoinShareScenario builds the pharmacist/doctor pair on a fresh
// network with nRecords synthetic records under seed. The doctor may
// write dosage and mechanism; the pharmacist only dosage (it holds no
// mechanism data of its own — the reference is read-only).
func NewJoinShareScenario(ctx context.Context, cfg NetworkConfig, nRecords int, seed int64) (*JoinShareScenario, error) {
	nw, err := NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	sc, err := PopulateJoinShare(ctx, nw, nRecords, seed)
	if err != nil {
		nw.Stop()
		return nil, err
	}
	return sc, nil
}

// PopulateJoinShare builds the join-share stakeholders on an existing
// network.
func PopulateJoinShare(ctx context.Context, nw *Network, nRecords int, seed int64) (*JoinShareScenario, error) {
	full := workload.Generate("full", nRecords, seed)

	pharmacist, err := nw.NewPeer("Pharmacist", 0)
	if err != nil {
		return nil, err
	}
	doctor, err := nw.NewPeer("Doctor", nw.Nodes()-1)
	if err != nil {
		return nil, err
	}

	rx, err := full.Project("RX", workload.PrescriptionCols, nil)
	if err != nil {
		return nil, err
	}
	d3, err := full.Project("D3", workload.DoctorCols, nil)
	if err != nil {
		return nil, err
	}
	pharmacist.DB().PutTable(rx)
	doctor.DB().PutTable(d3)

	perm := map[string][]identity.Address{
		workload.ColDosage:    {pharmacist.Address(), doctor.Address()},
		workload.ColMechanism: {doctor.Address()},
	}
	err = pharmacist.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          ShareIDRx,
		SourceTable: "RX",
		Lens:        LensRxJoin(seed),
		ViewName:    "RXF",
		Peers:       []identity.Address{pharmacist.Address(), doctor.Address()},
		WritePerm:   perm,
		Authority:   doctor.Address(),
	})
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", ShareIDRx, err)
	}
	if _, err := doctor.WaitForShare(ctx, ShareIDRx); err != nil {
		return nil, err
	}
	if err := doctor.AttachShare(ShareIDRx, "D3", LensD3F(), "D3F"); err != nil {
		return nil, err
	}
	return &JoinShareScenario{
		Network: nw, Pharmacist: pharmacist, Doctor: doctor, ShareRx: ShareIDRx,
	}, nil
}

// Stop shuts the scenario's network down.
func (sc *JoinShareScenario) Stop() { sc.Network.Stop() }

// ChaosConfig tunes the chaos suite: an update storm driven through the
// Fig. 1 topology while the data channel drops, duplicates, delays, and
// reorders messages, a full three-way partition, and a peer crash mid
// cascade. Zero values select the defaults noted per field.
type ChaosConfig struct {
	// Records is the synthetic record count (0 → 24).
	Records int
	// Updates is the lossy-phase storm length (0 → 6).
	Updates int
	// Seed drives every random choice — the fault fabric's sampling and
	// the workload — so a run is reproducible end to end.
	Seed int64
	// HangRate is the probability a request hangs until its per-attempt
	// deadline instead of failing fast (0 → 0.05).
	HangRate float64
	// BlockInterval is the chain's block period (0 → 2ms).
	BlockInterval time.Duration
	// RepairInterval is each peer's background anti-entropy repair period
	// (0 → 20ms).
	RepairInterval time.Duration
	// DataTransport is DataTransportMem (default) or DataTransportTCP.
	DataTransport string
	// GroupCommit runs the chain with demand-driven batched block
	// production (NetworkConfig.GroupCommitWindow): the storm's
	// multi-share proposals ride group commits instead of one block
	// interval each, so the suite exercises the batched commit path
	// under the same faults.
	GroupCommit bool
	// Durable backs every peer with an in-memory durable store
	// (NetworkConfig.DurablePeers), so each replica commit is also a
	// store commit and the run's final images can be inspected for
	// crash-recovery correctness.
	Durable bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Records <= 0 {
		c.Records = 24
	}
	if c.Updates <= 0 {
		c.Updates = 6
	}
	if c.HangRate < 0 {
		c.HangRate = 0
	} else if c.HangRate == 0 {
		c.HangRate = 0.05
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 2 * time.Millisecond
	}
	if c.RepairInterval <= 0 {
		c.RepairInterval = 20 * time.Millisecond
	}
	return c
}

// ChaosReport summarizes one chaos run: how much work went through, what
// the fabric did to it, and what each peer's recovery machinery had to
// do. ConvergeAfterHeal is the headline number — how long the network
// needed to bring every replica back to the on-chain Merkle root once
// the last fault was lifted.
type ChaosReport struct {
	Updates           int
	Elapsed           time.Duration
	ConvergeAfterHeal time.Duration
	Counters          faultnet.Counters
	PeerStats         map[string]core.Stats
}

// ChaosScenario is the Fig. 1 topology under a fault-injection fabric.
// Beyond Fig. 3, the patient is granted medication write permission on
// D13&D31 so an update storm can drive the full cascade chain
// Patient → Doctor → Researcher (a medication rename propagates from D13
// through the doctor's D3 into D23&D32).
type ChaosScenario struct {
	*Fig1Scenario
	Fabric *faultnet.Fabric
	cfg    ChaosConfig
}

// NewChaosScenario builds the Fig. 1 stakeholders on a fault-injected
// network with hardened peers (per-attempt RPC deadlines, retry backoff,
// endpoint quarantine, background repair loop).
func NewChaosScenario(ctx context.Context, cfg ChaosConfig) (*ChaosScenario, error) {
	cfg = cfg.withDefaults()
	var window time.Duration
	if cfg.GroupCommit {
		window = 500 * time.Microsecond
	}
	nw, err := NewNetwork(NetworkConfig{
		BlockInterval:      cfg.BlockInterval,
		GroupCommitWindow:  window,
		Seed:               cfg.Seed,
		FaultInjection:     true,
		DurablePeers:       cfg.Durable,
		DataTransport:      cfg.DataTransport,
		PeerResyncInterval: cfg.RepairInterval,
		PeerRPCTimeout:     150 * time.Millisecond,
		PeerRetry:          core.Backoff{Base: 4 * time.Millisecond, Max: 60 * time.Millisecond, Attempts: 4},
		PeerHealth:         core.HealthPolicy{FailureThreshold: 4, Quarantine: 40 * time.Millisecond, MaxQuarantine: 250 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	fig, err := PopulateFig1(ctx, nw, cfg.Records, cfg.Seed)
	if err != nil {
		nw.Stop()
		return nil, err
	}
	// The cascade-chain permission (see type doc).
	err = fig.Doctor.SetPermission(ctx, ShareIDD13, workload.ColMedication,
		[]identity.Address{fig.Patient.Address(), fig.Doctor.Address()})
	if err != nil {
		nw.Stop()
		return nil, err
	}
	return &ChaosScenario{Fig1Scenario: fig, Fabric: nw.Fabric(), cfg: cfg}, nil
}

// patientKey returns the i-th synthetic patient id (Generate starts at
// 188, in homage to Fig. 1).
func (sc *ChaosScenario) patientKey(i int) int64 {
	return int64(188 + i%sc.cfg.Records)
}

// uniqueMedPatients returns, in ascending patient-id order, the patients
// whose medication no other patient shares. Renaming such a patient's
// medication is a clean key rename on the medication-keyed D23&D32
// (delete+insert with identical mechanism → Cols=[medication_name]); a
// shared medication would instead leave the old key alive and make the
// insert demand write permission on mechanism_of_action, which neither
// the doctor nor the patient holds.
func (sc *ChaosScenario) uniqueMedPatients() ([]int64, error) {
	d3, err := sc.Doctor.Source("D3")
	if err != nil {
		return nil, err
	}
	medIdx := d3.Schema().ColumnIndex(workload.ColMedication)
	idIdx := d3.Schema().ColumnIndex(workload.ColPatientID)
	rows, err := d3.OrderBy(workload.ColPatientID)
	if err != nil {
		return nil, err
	}
	count := make(map[string]int)
	for _, r := range rows {
		med, _ := r[medIdx].Str()
		count[med]++
	}
	var ids []int64
	for _, r := range rows {
		med, _ := r[medIdx].Str()
		if count[med] == 1 {
			id, _ := r[idIdx].Int()
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		return nil, fmt.Errorf("chaos: workload has %d uniquely-medicated patients, need 2 (change Seed or Records)", len(ids))
	}
	return ids, nil
}

// stormUpdate drives one finalized update through the lossy channel,
// rotating over the three stakeholders and both shares.
func (sc *ChaosScenario) stormUpdate(ctx context.Context, i int) error {
	switch i % 3 {
	case 0: // doctor edits a dosage in D3; propagates over D13&D31
		key := sc.patientKey(i)
		err := sc.Doctor.UpdateSource("D3", func(t *reldb.Table) error {
			return t.Update(reldb.Row{reldb.I(key)}, map[string]reldb.Value{
				workload.ColDosage: reldb.S(fmt.Sprintf("chaos dosage %d", i)),
			})
		})
		if err != nil {
			return err
		}
		results, err := sc.Doctor.SyncShares(ctx, "D3")
		if err != nil {
			return err
		}
		for _, r := range results {
			if err := sc.Doctor.WaitFinal(ctx, r.ShareID, r.Seq); err != nil {
				return err
			}
		}
		return nil
	case 1: // patient edits clinical data through the D13 view
		key := sc.patientKey(i)
		res, err := sc.Patient.UpdateView(ctx, sc.ShareD13, func(t *reldb.Table) error {
			return t.Update(reldb.Row{reldb.I(key)}, map[string]reldb.Value{
				workload.ColClinical: reldb.S(fmt.Sprintf("chaos-clinical-%d", i)),
			})
		})
		if err != nil {
			return err
		}
		return sc.Patient.WaitFinal(ctx, sc.ShareD13, res.Seq)
	default: // researcher edits a mechanism through the D23 view
		view, err := sc.Researcher.View(sc.ShareD23)
		if err != nil {
			return err
		}
		meds, err := view.OrderBy(workload.ColMedication)
		if err != nil {
			return err
		}
		if len(meds) == 0 {
			return fmt.Errorf("chaos: researcher view is empty")
		}
		med := meds[i%len(meds)][0]
		res, err := sc.Researcher.UpdateView(ctx, sc.ShareD23, func(t *reldb.Table) error {
			return t.Update(reldb.Row{med}, map[string]reldb.Value{
				workload.ColMechanism: reldb.S(fmt.Sprintf("chaos-mech-%d", i)),
			})
		})
		if err != nil {
			return err
		}
		return sc.Researcher.WaitFinal(ctx, sc.ShareD23, res.Seq)
	}
}

// shareReplicas maps each share to the peers holding a replica of it.
func (sc *ChaosScenario) shareReplicas(shareID string) map[string]*core.Peer {
	switch shareID {
	case ShareIDD13:
		return map[string]*core.Peer{"Patient": sc.Patient, "Doctor": sc.Doctor}
	default:
		return map[string]*core.Peer{"Researcher": sc.Researcher, "Doctor": sc.Doctor}
	}
}

// waitShareConverged polls until the share is finalized at or beyond
// minSeq with nothing pending and every replica's view hashes to the
// on-chain payload hash — the Merkle-root convergence criterion.
func (sc *ChaosScenario) waitShareConverged(ctx context.Context, shareID string, minSeq uint64) error {
	replicas := sc.shareReplicas(shareID)
	var last string
	for {
		meta, err := sc.Doctor.Meta(shareID)
		if err != nil {
			return err
		}
		switch {
		case meta.Seq < minSeq:
			last = fmt.Sprintf("chain at seq %d, want %d", meta.Seq, minSeq)
		case meta.Pending != nil:
			last = fmt.Sprintf("seq %d still pending", meta.Pending.Seq)
		case meta.LastPayloadHash == "":
			last = "share never updated"
		default:
			last = ""
			for name, p := range replicas {
				view, verr := p.View(shareID)
				if verr != nil {
					return verr
				}
				h := view.Hash()
				if hex.EncodeToString(h[:]) != meta.LastPayloadHash {
					last = fmt.Sprintf("%s diverged from the on-chain root at seq %d", name, meta.Seq)
					break
				}
			}
			if last == "" {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("chaos: %s did not converge: %s: %w", shareID, last, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Run drives the full chaos sequence — lossy update storm, three-way
// partition, doctor crash-restart mid-cascade — and then lifts every
// fault and waits for global convergence. No replica is ever manually
// resynced: recovery is retry backoff, endpoint quarantine probes, and
// the background repair loop alone.
func (sc *ChaosScenario) Run(ctx context.Context) (*ChaosReport, error) {
	fab := sc.Fabric
	report := &ChaosReport{PeerStats: map[string]core.Stats{}}
	renameTargets, err := sc.uniqueMedPatients()
	if err != nil {
		return report, err
	}
	start := time.Now()
	fill := func() {
		report.Elapsed = time.Since(start)
		report.Counters = fab.Counters()
		report.PeerStats["Patient"] = sc.Patient.Stats()
		report.PeerStats["Doctor"] = sc.Doctor.Stats()
		report.PeerStats["Researcher"] = sc.Researcher.Stats()
	}

	// Phase 1: update storm over a lossy (35% of requests and one-way
	// messages), duplicating, delaying, reordering channel. Every update
	// still reaches finality — retries and the repair loop push them
	// through.
	fab.SetRequestLoss(0.35, sc.cfg.HangRate)
	fab.SetDropRate(0.35)
	fab.SetDuplicateRate(0.2)
	fab.SetReorderRate(0.2)
	fab.SetDelay(200*time.Microsecond, 500*time.Microsecond)
	for i := 0; i < sc.cfg.Updates; i++ {
		if err := sc.stormUpdate(ctx, i); err != nil {
			fill()
			return report, fmt.Errorf("chaos: storm update %d: %w", i, err)
		}
		report.Updates++
	}

	// Phase 2: full three-way partition. The doctor renames a medication
	// — one proposal per share — and both commit on-chain, but neither
	// counterparty can fetch the payload, so both stay pending until the
	// partition heals and quarantine probes let traffic flow again.
	fab.Partition(
		[]string{sc.Network.PeerEndpoint("Patient")},
		[]string{sc.Network.PeerEndpoint("Doctor")},
		[]string{sc.Network.PeerEndpoint("Researcher")},
	)
	err = sc.Doctor.UpdateSource("D3", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(renameTargets[0])}, map[string]reldb.Value{
			workload.ColMedication: reldb.S("PartitionMed"),
		})
	})
	if err != nil {
		fill()
		return report, err
	}
	results, err := sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		fill()
		return report, fmt.Errorf("chaos: partitioned proposals: %w", err)
	}
	time.Sleep(8 * sc.cfg.RepairInterval) // let retry ladders exhaust against the partition
	fab.Heal()
	for _, r := range results {
		if err := sc.Doctor.WaitFinal(ctx, r.ShareID, r.Seq); err != nil {
			fill()
			return report, fmt.Errorf("chaos: %s after heal: %w", r.ShareID, err)
		}
		report.Updates++
	}

	// Phase 3: crash the doctor — the hub of both shares — and propose a
	// medication rename from the patient while it is down. The pending
	// D13 update's cascade into D23 cannot start until the doctor is
	// back. Restore it cold from pre-crash snapshots; its repair loop
	// must apply the pending update, acknowledge it, and carry the
	// cascade to the researcher, all through the still-lossy channel.
	snap13, err := sc.Doctor.SnapshotShare(sc.ShareD13)
	if err != nil {
		fill()
		return report, err
	}
	snap23, err := sc.Doctor.SnapshotShare(sc.ShareD23)
	if err != nil {
		fill()
		return report, err
	}
	metaD23, err := sc.Doctor.Meta(sc.ShareD23)
	if err != nil {
		fill()
		return report, err
	}
	fab.Blackhole(sc.Network.PeerEndpoint("Doctor"))
	sc.Doctor.Stop()

	res, err := sc.Patient.UpdateView(ctx, sc.ShareD13, func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(renameTargets[1])}, map[string]reldb.Value{
			workload.ColMedication: reldb.S("CrashMed"),
		})
	})
	if err != nil {
		fill()
		return report, fmt.Errorf("chaos: proposal against crashed doctor: %w", err)
	}

	if err := sc.Doctor.RestoreShare(snap13); err != nil {
		fill()
		return report, err
	}
	if err := sc.Doctor.RestoreShare(snap23); err != nil {
		fill()
		return report, err
	}
	sc.Doctor.Restart()
	fab.Restore(sc.Network.PeerEndpoint("Doctor"))

	if err := sc.Patient.WaitFinal(ctx, sc.ShareD13, res.Seq); err != nil {
		fill()
		return report, fmt.Errorf("chaos: crash-restart D13 finality: %w", err)
	}
	report.Updates++
	if err := sc.waitShareConverged(ctx, sc.ShareD23, metaD23.Seq+1); err != nil {
		fill()
		return report, fmt.Errorf("chaos: cascade after crash-restart: %w", err)
	}
	report.Updates++

	// Final: lift every remaining fault and wait for global convergence
	// of both shares on every replica.
	fab.SetRequestLoss(0, 0)
	fab.SetDropRate(0)
	fab.SetDuplicateRate(0)
	fab.SetReorderRate(0)
	fab.SetDelay(0, 0)
	fab.Heal()
	healed := time.Now()
	if err := sc.waitShareConverged(ctx, sc.ShareD13, 1); err != nil {
		fill()
		return report, err
	}
	if err := sc.waitShareConverged(ctx, sc.ShareD23, 1); err != nil {
		fill()
		return report, err
	}
	report.ConvergeAfterHeal = time.Since(healed)
	fill()
	return report, nil
}
