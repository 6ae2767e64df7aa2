package medshare

import (
	"context"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/p2p/faultnet"
	"medshare/internal/reldb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// runChaos executes the full chaos suite — lossy update storm, three-way
// partition, doctor crash-restart mid-cascade — with a fixed seed and
// asserts the acceptance criteria: every finalized update lands, the
// fabric really did drop a meaningful share of traffic, recovery used
// the retry/repair machinery (never a manual resync), the doctor's
// multi-share proposals rode group commits with per-share sequence order
// intact, and every replica ends at the on-chain Merkle root.
func runChaos(t *testing.T, cfg chaosConfig) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg.Seed = 42
	sc, err := newChaosScenario(ctx, cfg)
	if err != nil {
		t.Fatalf("newChaosScenario: %v", err)
	}
	defer sc.Network.Stop()

	report, err := sc.Run(ctx)
	if err != nil {
		t.Fatalf("chaos run: %v (report %+v)", err, report)
	}

	if report.Updates < 9 { // 6 storm + 2 partitioned + crash-restart phases
		t.Fatalf("expected at least 9 finalized updates, got %d", report.Updates)
	}
	c := report.Counters
	if c.Requests == 0 {
		t.Fatalf("no data-channel requests observed: %+v", c)
	}
	lost := c.RequestsLost + c.RequestsHung + c.Blocked
	if lost == 0 {
		t.Fatalf("fabric injected no request faults: %+v", c)
	}
	t.Logf("report: updates=%d elapsed=%v converge=%v", report.Updates, report.Elapsed, report.ConvergeAfterHeal)
	t.Logf("fabric: %+v", c)

	var retries, heals uint64
	for name, st := range report.PeerStats {
		t.Logf("stats[%s]: %+v", name, st)
		retries += st.RPCRetries
		heals += st.RepairHeals
	}
	if retries == 0 {
		t.Fatal("no RPC retries recorded — the fault schedule did not exercise the backoff path")
	}
	if heals == 0 {
		t.Fatal("no repair heals recorded — convergence did not go through the self-healing loop")
	}

	// The batched commit path must actually have been driven: the
	// doctor's multi-share proposals (phase 2 renames both shares) ride
	// group commits.
	var commits, txs uint64
	for _, st := range report.PeerStats {
		commits += st.BatchCommits
		txs += st.BatchTxs
	}
	if commits == 0 || txs <= commits {
		t.Fatalf("group commit unused under chaos: BatchCommits=%d BatchTxs=%d", commits, txs)
	}
	// Per-share sequence order survives batching under faults: every
	// history stream (per share and entry kind) advances strictly.
	type stream struct{ share, kind string }
	for name, p := range map[string]interface{ History() []core.HistoryEntry }{
		"Patient": sc.Patient, "Doctor": sc.Doctor, "Researcher": sc.Researcher,
	} {
		last := make(map[stream]uint64)
		for _, e := range p.History() {
			if e.Seq == 0 {
				continue
			}
			k := stream{e.ShareID, e.Kind}
			if e.Seq <= last[k] {
				t.Fatalf("%s history out of order on %s/%s: seq %d after %d",
					name, e.ShareID, e.Kind, e.Seq, last[k])
			}
			last[k] = e.Seq
		}
	}
}

func TestChaosConvergenceMemnet(t *testing.T) {
	runChaos(t, chaosConfig{DataTransport: DataTransportMem})
}

// TestChaosConvergenceGroupCommit is the batched-commit chaos variant:
// the same fault schedule (request loss, three-way partition, doctor
// crash-restart) with an idle retry far longer than the whole run's
// block cadence, so every block the chain commits is produced by a kick
// (an admitted transaction or a turn handoff). The storm must still
// finalize, its multi-share proposals must ride group commits with
// per-share sequence order intact, and every replica must converge to
// the on-chain Merkle root — none of it leaning on the timer.
func TestChaosConvergenceGroupCommit(t *testing.T) {
	runChaos(t, chaosConfig{DataTransport: DataTransportMem, BlockInterval: time.Hour})
}

func TestChaosConvergenceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos suite skipped in -short mode")
	}
	runChaos(t, chaosConfig{DataTransport: DataTransportTCP})
}

// TestChaosConvergenceDurable runs the full chaos suite (every peer
// backed by a durable store), then treats each peer's filesystem clone
// as a kill -9 image: reopening it must yield, for every share the peer
// held, a Merkle-verified view whose hash equals the on-chain payload
// hash at the on-chain sequence. This closes the loop between the
// self-healing convergence criterion (live replicas match the chain)
// and the durability criterion (a crashed replica's recovered state
// matches the chain too).
func TestChaosConvergenceDurable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	sc, err := newChaosScenario(ctx, chaosConfig{Seed: 42})
	if err != nil {
		t.Fatalf("newChaosScenario: %v", err)
	}
	defer sc.Network.Stop()

	report, err := sc.Run(ctx)
	if err != nil {
		t.Fatalf("chaos run: %v (report %+v)", err, report)
	}
	t.Logf("report: updates=%d elapsed=%v converge=%v", report.Updates, report.Elapsed, report.ConvergeAfterHeal)

	// The on-chain truth, captured while the network is still up.
	wantMeta := map[string]*sharereg.Meta{}
	for _, id := range []string{ShareIDD13, ShareIDD23} {
		m, err := sc.Doctor.Meta(id)
		if err != nil {
			t.Fatalf("meta %s: %v", id, err)
		}
		if m.LastPayloadHash == "" {
			t.Fatalf("share %s never updated", id)
		}
		wantMeta[id] = m
	}

	for _, name := range []string{"Doctor", "Patient", "Researcher"} {
		fs := sc.Network.peerFS[name]
		if fs == nil {
			t.Fatalf("%s has no durable filesystem", name)
		}
		// Clone without stopping anything: a byte-exact kill -9 image of
		// the converged peer.
		st, err := store.Open(store.Options{FS: fs.Clone()})
		if err != nil {
			t.Fatalf("%s: reopen kill -9 image: %v", name, err)
		}
		shares := st.Shares()
		if len(shares) == 0 {
			t.Fatalf("%s: recovered store holds no shares", name)
		}
		for id, sm := range shares {
			if sm.View == "" {
				continue // tombstone
			}
			want, ok := wantMeta[id]
			if !ok {
				t.Fatalf("%s: recovered unknown share %s", name, id)
			}
			view, err := st.LoadTable(sm.View)
			if err != nil {
				t.Fatalf("%s/%s: recovered view fails verification: %v", name, id, err)
			}
			if sm.Seq != want.Seq {
				t.Fatalf("%s/%s: recovered at seq %d, chain at %d", name, id, sm.Seq, want.Seq)
			}
			h := view.Hash()
			if got := hex.EncodeToString(h[:]); got != want.LastPayloadHash {
				t.Fatalf("%s/%s: recovered view hash %s != on-chain %s", name, id, got[:12], want.LastPayloadHash[:12])
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close recovered store: %v", name, err)
		}
		t.Logf("%s: recovered %d shares from kill -9 image, all at the on-chain root", name, len(shares))
	}
}

// chaosConfig tunes the chaos suite: an update storm driven through the
// Fig. 1 topology while the data channel drops, duplicates, delays, and
// reorders messages, a full three-way partition, and a peer crash mid
// cascade. Every peer keeps its replicas in a durable in-memory store,
// which is what the crashed doctor restarts over.
type chaosConfig struct {
	// Seed drives every random choice — the fault fabric's sampling and
	// the workload — so a run is reproducible end to end.
	Seed int64
	// DataTransport is DataTransportMem (default) or DataTransportTCP.
	DataTransport string
	// BlockInterval is the chain's idle retry; zero means
	// chaosBlockInterval.
	BlockInterval time.Duration
}

// The chaos suite's fixed shape.
const (
	// chaosRecords is the synthetic record count.
	chaosRecords = 24
	// chaosStormUpdates is the lossy-phase storm length.
	chaosStormUpdates = 6
	// chaosHangRate is the probability a lossy-phase request hangs until
	// its per-attempt deadline instead of failing fast.
	chaosHangRate = 0.05
	// chaosBlockInterval is the chain's default idle retry.
	chaosBlockInterval = 2 * time.Millisecond
	// chaosRepairInterval is each peer's background anti-entropy repair
	// period.
	chaosRepairInterval = 20 * time.Millisecond
)

// chaosReport summarizes one chaos run: how much work went through, what
// the fabric did to it, and what each peer's recovery machinery had to
// do. ConvergeAfterHeal is the headline number — how long the network
// needed to bring every replica back to the on-chain Merkle root once
// the last fault was lifted.
type chaosReport struct {
	Updates           int
	Elapsed           time.Duration
	ConvergeAfterHeal time.Duration
	Counters          faultnet.Counters
	PeerStats         map[string]core.Stats
}

// chaosScenario is the Fig. 1 topology under a fault-injection fabric.
// Beyond Fig. 3, the patient is granted medication write permission on
// D13&D31 so an update storm can drive the full cascade chain
// Patient → Doctor → Researcher (a medication rename propagates from D13
// through the doctor's D3 into D23&D32).
type chaosScenario struct {
	*Fig1Scenario
	Fabric *faultnet.Fabric
}

// newChaosScenario builds the Fig. 1 stakeholders on a fault-injected
// network with hardened, durable peers (per-attempt RPC deadlines, retry
// backoff, endpoint quarantine, background repair loop).
func newChaosScenario(ctx context.Context, cfg chaosConfig) (*chaosScenario, error) {
	if cfg.BlockInterval == 0 {
		cfg.BlockInterval = chaosBlockInterval
	}
	nw, err := NewNetwork(NetworkConfig{
		BlockInterval:      cfg.BlockInterval,
		Seed:               cfg.Seed,
		FaultInjection:     true,
		DurablePeers:       true,
		DataTransport:      cfg.DataTransport,
		PeerResyncInterval: chaosRepairInterval,
		PeerRPCTimeout:     150 * time.Millisecond,
		PeerRetry:          core.Backoff{Base: 4 * time.Millisecond, Max: 60 * time.Millisecond, Attempts: 4},
		PeerHealth:         core.HealthPolicy{FailureThreshold: 4, Quarantine: 40 * time.Millisecond, MaxQuarantine: 250 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	fig, err := PopulateFig1(ctx, nw, chaosRecords, cfg.Seed)
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
	return &chaosScenario{Fig1Scenario: fig, Fabric: nw.fab}, nil
}

// patientKey returns the i-th synthetic patient id (Generate starts at
// 188, in homage to Fig. 1).
func (sc *chaosScenario) patientKey(i int) int64 {
	return int64(188 + i%chaosRecords)
}

// uniqueMedPatients returns, in ascending patient-id order, the patients
// whose medication no other patient shares. Renaming such a patient's
// medication is a clean key rename on the medication-keyed D23&D32
// (delete+insert with identical mechanism → Cols=[medication_name]); a
// shared medication would instead leave the old key alive and make the
// insert demand write permission on mechanism_of_action, which neither
// the doctor nor the patient holds.
func (sc *chaosScenario) uniqueMedPatients() ([]int64, error) {
	d3, err := sc.Doctor.Source("D3")
	if err != nil {
		return nil, err
	}
	medIdx := d3.Schema().ColumnIndex(workload.ColMedication)
	idIdx := d3.Schema().ColumnIndex(workload.ColPatientID)
	rows := d3.RowsCanonical() // in patient-id order: D3's key
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
		return nil, fmt.Errorf("chaos: workload has %d uniquely-medicated patients, need 2 (change Seed)", len(ids))
	}
	return ids, nil
}

// stormUpdate drives one finalized update through the lossy channel,
// rotating over the three stakeholders and both shares.
func (sc *chaosScenario) stormUpdate(ctx context.Context, i int) error {
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
		res, err := sc.Patient.UpdateView(ctx, ShareIDD13, func(t *reldb.Table) error {
			return t.Update(reldb.Row{reldb.I(key)}, map[string]reldb.Value{
				workload.ColClinical: reldb.S(fmt.Sprintf("chaos-clinical-%d", i)),
			})
		})
		if err != nil {
			return err
		}
		return sc.Patient.WaitFinal(ctx, ShareIDD13, res.Seq)
	default: // researcher edits a mechanism through the D23 view
		view, err := sc.Researcher.View(ShareIDD23)
		if err != nil {
			return err
		}
		meds := view.RowsCanonical() // in medication order: D23's key
		if len(meds) == 0 {
			return fmt.Errorf("chaos: researcher view is empty")
		}
		med := meds[i%len(meds)][0]
		res, err := sc.Researcher.UpdateView(ctx, ShareIDD23, func(t *reldb.Table) error {
			return t.Update(reldb.Row{med}, map[string]reldb.Value{
				workload.ColMechanism: reldb.S(fmt.Sprintf("chaos-mech-%d", i)),
			})
		})
		if err != nil {
			return err
		}
		return sc.Researcher.WaitFinal(ctx, ShareIDD23, res.Seq)
	}
}

// shareReplicas maps each share to the peers holding a replica of it.
func (sc *chaosScenario) shareReplicas(shareID string) map[string]*core.Peer {
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
func (sc *chaosScenario) waitShareConverged(ctx context.Context, shareID string, minSeq uint64) error {
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
func (sc *chaosScenario) Run(ctx context.Context) (*chaosReport, error) {
	fab := sc.Fabric
	report := &chaosReport{PeerStats: map[string]core.Stats{}}
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
	fab.SetRequestLoss(0.35, chaosHangRate)
	fab.SetDropRate(0.35)
	fab.SetDuplicateRate(0.2)
	fab.SetReorderRate(0.2)
	fab.SetDelay(200*time.Microsecond, 500*time.Microsecond)
	for i := 0; i < chaosStormUpdates; i++ {
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
	time.Sleep(8 * chaosRepairInterval) // let retry ladders exhaust against the partition
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
	// back. It restarts over its crash image, a new peer over its store;
	// its repair loop must apply the pending update, acknowledge it, and
	// carry the cascade to the researcher, all through the still-lossy
	// channel.
	metaD23, err := sc.Doctor.Meta(ShareIDD23)
	if err != nil {
		fill()
		return report, err
	}
	image := sc.Network.peerFS["Doctor"].Clone()
	fab.Blackhole(sc.Network.PeerEndpoint("Doctor"))
	sc.Doctor.Stop()

	res, err := sc.Patient.UpdateView(ctx, ShareIDD13, func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(renameTargets[1])}, map[string]reldb.Value{
			workload.ColMedication: reldb.S("CrashMed"),
		})
	})
	if err != nil {
		fill()
		return report, fmt.Errorf("chaos: proposal against crashed doctor: %w", err)
	}

	// The restarted doctor counts from zero; keep what the crashed one
	// did in the report.
	report.PeerStats["Doctor (crashed)"] = sc.Doctor.Stats()
	doctor, err := restartPeer(sc.Network, sc.Doctor, "Doctor", sc.Network.Nodes()-1, image)
	if err != nil {
		fill()
		return report, err
	}
	sc.Doctor = doctor
	if err := doctor.AttachShare(ShareIDD13, "D3", workload.LensD31(), "D31"); err != nil {
		fill()
		return report, err
	}
	if err := doctor.AttachShare(ShareIDD23, "D3", workload.LensD32(), "D32"); err != nil {
		fill()
		return report, err
	}
	fab.Restore(sc.Network.PeerEndpoint("Doctor"))

	if err := sc.Patient.WaitFinal(ctx, ShareIDD13, res.Seq); err != nil {
		fill()
		return report, fmt.Errorf("chaos: crash-restart D13 finality: %w", err)
	}
	report.Updates++
	if err := sc.waitShareConverged(ctx, ShareIDD23, metaD23.Seq+1); err != nil {
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
	if err := sc.waitShareConverged(ctx, ShareIDD13, 1); err != nil {
		fill()
		return report, err
	}
	if err := sc.waitShareConverged(ctx, ShareIDD23, 1); err != nil {
		fill()
		return report, err
	}
	report.ConvergeAfterHeal = time.Since(healed)
	fill()
	return report, nil
}
