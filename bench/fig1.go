package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// The Fig. 1 topology: Doctor (sealer), Patient, Researcher;
// shares D13&D31 and D23&D32 with Fig. 3 permissions plus the chaos
// suite's grant that lets the Patient rename a medication, which is what
// makes an edit on D13 cascade D13 -> D3 -> D23 (Fig. 5).

const (
	shareD13 = "D13&D31"
	shareD23 = "D23&D32"

	// Nominal operation rates on the 2-core reference box at the commit
	// that defined the benchmark. -seconds times these gives the fixed
	// operation counts, so chain height and store size are identical on
	// both sides of a comparison whatever the speed of either side.
	trickleOpsPerSecond = 52
	bulkOpsPerSecond    = 17
	bulkRowsPerOp       = 512
)

func lensD13() bx.Lens {
	return bx.Project("D13", workload.ShareD13Cols, nil).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{workload.ColAddress: reldb.S("unknown")})
}

func lensD31() bx.Lens { return bx.Project("D31", workload.ShareD13Cols, nil) }

func lensD23() bx.Lens {
	return bx.Project("D23", workload.ShareD23Cols, []string{workload.ColMedication}).
		WithDelete(bx.PolicyApply).
		WithInsert(bx.PolicyApply, map[string]reldb.Value{workload.ColMode: reldb.S("MoA-pending")})
}

func lensD32() bx.Lens {
	return bx.Project("D32", workload.ShareD23Cols, []string{workload.ColMedication})
}

const firstPatientID = 188

func medName(i int) string { return fmt.Sprintf("Med-%06d", i) }

// genRecords builds n full records with one unique medication per row,
// so D32 (keyed by medication) has n rows and a medication rename is a
// clean key rename there. Everything but the keys derives from the seed.
func genRecords(n int, seed int64) *reldb.Table {
	rng := rand.New(rand.NewSource(seed))
	t := reldb.MustNewTable(workload.FullSchema("full"))
	for i := 0; i < n; i++ {
		t.MustInsert(reldb.Row{
			reldb.I(int64(firstPatientID + i)),
			reldb.S(medName(i)),
			reldb.S(fmt.Sprintf("CliD-%d", rng.Intn(1_000_000))),
			reldb.S(fmt.Sprintf("%d Ward %d", rng.Intn(900)+1, rng.Intn(40))),
			reldb.S(fmt.Sprintf("%d mg every %dh", 50*(rng.Intn(20)+1), 4+rng.Intn(9))),
			reldb.S(fmt.Sprintf("MeA-%d", rng.Intn(1_000_000))),
			reldb.S(fmt.Sprintf("MoA-%d", rng.Intn(1_000_000))),
		})
	}
	return t
}

type fig1State struct {
	records                     int
	doctor, patient, researcher *core.Peer
}

func setupFig1(records, tinyRecords int) func(context.Context, runConfig, string) (*env, error) {
	return func(ctx context.Context, cfg runConfig, root string) (*env, error) {
		n := records
		if cfg.tiny {
			n = tinyRecords
		}
		full := genRecords(n, cfg.seed)
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

		d, err := deploy(root, []string{"Doctor", "Patient", "Researcher"}, "", cfg.tr)
		if err != nil {
			return nil, err
		}
		e := &env{
			d: d,
			binds: []binding{
				{share: shareD13, daemon: "Doctor", source: "D3", view: "D31", lens: lensD31},
				{share: shareD13, daemon: "Patient", source: "D1", view: "D13", lens: lensD13},
				{share: shareD23, daemon: "Doctor", source: "D3", view: "D32", lens: lensD32},
				{share: shareD23, daemon: "Researcher", source: "D2", view: "D23", lens: lensD23},
			},
			recoverWho:     "Patient",
			recoverInitial: []*reldb.Table{d1},
			readShares:     []string{shareD13, shareD23},
		}
		ok := false
		defer func() {
			if !ok {
				d.stop()
			}
		}()
		doctor, patient, researcher := d.daemon("Doctor").peer, d.daemon("Patient").peer, d.daemon("Researcher").peer
		doctor.DB().PutTable(d3)
		patient.DB().PutTable(d1)
		researcher.DB().PutTable(d2)
		da, pa, ra := doctor.Address(), patient.Address(), researcher.Address()

		err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
			ID: shareD13, SourceTable: "D3", Lens: lensD31(), ViewName: "D31",
			Peers: []identity.Address{pa, da},
			WritePerm: map[string][]identity.Address{
				workload.ColPatientID:  {da},
				workload.ColMedication: {da},
				workload.ColDosage:     {da},
				workload.ColClinical:   {pa, da},
			},
			Authority: da,
		})
		if err != nil {
			return nil, err
		}
		err = doctor.RegisterShare(ctx, core.RegisterShareArgs{
			ID: shareD23, SourceTable: "D3", Lens: lensD32(), ViewName: "D32",
			Peers: []identity.Address{ra, da},
			WritePerm: map[string][]identity.Address{
				workload.ColMedication: {da, ra},
				workload.ColMechanism:  {ra},
			},
			Authority: ra,
		})
		if err != nil {
			return nil, err
		}
		if _, err := patient.WaitForShare(ctx, shareD13); err != nil {
			return nil, err
		}
		if err := patient.AttachShare(shareD13, "D1", lensD13(), "D13"); err != nil {
			return nil, err
		}
		if _, err := researcher.WaitForShare(ctx, shareD23); err != nil {
			return nil, err
		}
		if err := researcher.AttachShare(shareD23, "D2", lensD23(), "D23"); err != nil {
			return nil, err
		}
		medWriters := []identity.Address{pa, da}
		if err := doctor.SetPermission(ctx, shareD13, workload.ColMedication, medWriters); err != nil {
			return nil, err
		}
		e.sealerSide = commitProbe{peer: doctor, share: shareD13, column: workload.ColMedication, writers: medWriters}
		e.validatorSide = commitProbe{peer: researcher, share: shareD23, column: workload.ColMechanism, writers: []identity.Address{ra}}
		e.priv = &fig1State{records: n, doctor: doctor, patient: patient, researcher: researcher}

		// Warm: one finalized update per share, so the first measured
		// operation finds pooled connections and a delta base.
		last := int64(firstPatientID + n - 1)
		res, err := doctor.UpdateView(ctx, shareD13, setCell(reldb.I(last), workload.ColDosage, "warm"))
		if err != nil {
			return nil, err
		}
		if err := doctor.WaitFinal(ctx, shareD13, res.Seq); err != nil {
			return nil, err
		}
		res, err = researcher.UpdateView(ctx, shareD23, setCell(reldb.S(medName(n-1)), workload.ColMechanism, "warm"))
		if err != nil {
			return nil, err
		}
		if err := researcher.WaitFinal(ctx, shareD23, res.Seq); err != nil {
			return nil, err
		}
		ok = true
		return e, nil
	}
}

func setCell(key reldb.Value, col, val string) func(*reldb.Table) error {
	return func(t *reldb.Table) error {
		return t.Update(reldb.Row{key}, map[string]reldb.Value{col: reldb.S(val)})
	}
}

const (
	opClinical = iota
	opDosage
	opMechanism
	opRename
)

// measureTrickle runs the seeded mix of one-row updates, each waited to
// finality by one closed-loop client: 3 parts Patient clinical_data on
// D13, 3 parts Doctor dosage on D13, 3 parts Researcher mechanism on D23,
// 1 part Patient medication renames that cascade to D23. The four kinds
// touch disjoint quarters of the records.
func measureTrickle(ctx context.Context, e *env, cfg runConfig, p *pass) error {
	st := e.priv.(*fig1State)
	n := int(cfg.seconds * trickleOpsPerSecond)
	if cfg.tiny {
		n = 20
	}
	kinds := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 0, 1, 2:
			kinds = append(kinds, opClinical)
		case 3, 4, 5:
			kinds = append(kinds, opDosage)
		case 6, 7, 8:
			kinds = append(kinds, opMechanism)
		default:
			kinds = append(kinds, opRename)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	quarter := st.records / 4
	var used [4]int
	meta, err := st.researcher.Meta(shareD23)
	if err != nil {
		return err
	}
	d23Seq := meta.Seq

	for i, kind := range kinds {
		row := kind*quarter + used[kind]%quarter
		used[kind]++
		pid := reldb.I(int64(firstPatientID + row))
		val := fmt.Sprintf("s%d-op%d", cfg.seed, i)
		var (
			peer   *core.Peer
			share  string
			origin string
			other  string
			edit   func(*reldb.Table) error
		)
		switch kind {
		case opClinical:
			peer, share, origin, other = st.patient, shareD13, "Patient", "Doctor"
			edit = setCell(pid, workload.ColClinical, val)
		case opDosage:
			peer, share, origin, other = st.doctor, shareD13, "Doctor", "Patient"
			edit = setCell(pid, workload.ColDosage, val)
		case opMechanism:
			peer, share, origin, other = st.researcher, shareD23, "Researcher", "Doctor"
			edit = setCell(reldb.S(medName(row)), workload.ColMechanism, val)
		case opRename:
			peer, share, origin, other = st.patient, shareD13, "Patient", "Doctor"
			edit = setCell(pid, workload.ColMedication, "Ren-"+val)
		}
		p.attempted++
		t0 := time.Now()
		res, err := peer.UpdateView(ctx, share, edit)
		if err == nil {
			err = peer.WaitFinal(ctx, share, res.Seq)
		}
		t5 := time.Now()
		if err != nil {
			p.fail(fmt.Errorf("op %d on %s: %w", i, share, err))
			continue
		}
		p.updates++
		if share == shareD23 {
			d23Seq = res.Seq
		}
		op := tracedOp{share: share, seq: res.Seq, origin: origin, peer: other, t0: t0, t5: t5}
		if kind != opRename {
			p.finalMs = append(p.finalMs, ms(t5.Sub(t0)))
			if cfg.tr != nil {
				cfg.tr.record(op)
			}
			continue
		}
		// The Doctor re-proposes the rename on D23 once D13 is acked; the
		// cascade ends when the Researcher sees that update final.
		if err := st.researcher.WaitFinal(ctx, shareD23, d23Seq+1); err != nil {
			p.fail(fmt.Errorf("op %d cascade: %w", i, err))
			continue
		}
		t6 := time.Now()
		d23Seq++
		p.updates++
		p.cascadeMs = append(p.cascadeMs, ms(t6.Sub(t0)))
		if cfg.tr != nil {
			op.cascadeShare, op.cascadeSeq, op.t6 = shareD23, d23Seq, t6
			cfg.tr.record(op)
		}
	}
	return nil
}

// measureBulk runs Doctor updates that each rewrite dosage on 512
// consecutive rows of D13, each waited to finality.
func measureBulk(ctx context.Context, e *env, cfg runConfig, p *pass) error {
	st := e.priv.(*fig1State)
	n, width := int(cfg.seconds*bulkOpsPerSecond), bulkRowsPerOp
	if cfg.tiny {
		n, width = 6, 32
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < n; i++ {
		lo := rng.Intn(st.records - width + 1)
		val := reldb.S(fmt.Sprintf("s%d-op%d", cfg.seed, i))
		edit := func(t *reldb.Table) error {
			for r := lo; r < lo+width; r++ {
				key := reldb.Row{reldb.I(int64(firstPatientID + r))}
				if err := t.Update(key, map[string]reldb.Value{workload.ColDosage: val}); err != nil {
					return err
				}
			}
			return nil
		}
		p.attempted++
		t0 := time.Now()
		res, err := st.doctor.UpdateView(ctx, shareD13, edit)
		if err == nil {
			err = st.doctor.WaitFinal(ctx, shareD13, res.Seq)
		}
		t5 := time.Now()
		if err != nil {
			p.fail(fmt.Errorf("bulk op %d: %w", i, err))
			continue
		}
		p.updates++
		p.finalMs = append(p.finalMs, ms(t5.Sub(t0)))
		if cfg.tr != nil {
			cfg.tr.record(tracedOp{share: shareD13, seq: res.Seq, origin: "Doctor", peer: "Patient", t0: t0, t5: t5})
		}
	}
	return nil
}
