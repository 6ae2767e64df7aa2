package medshare

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/daemon"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Example_clinicNetwork runs a larger deployment than the paper's
// three-party example: two clinics and a lab, each its own daemon and
// strict round-robin PoA authority, with two fine-grained shares over
// one clinic's master records and two bursts of updates running at once.
// It shows that the architecture generalizes beyond the
// Patient/Doctor/Researcher triangle of Fig. 1.
func Example_clinicNetwork() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	ds := stakeholders("clinics", "ClinicA", "ClinicB", "Lab")
	clinicA, clinicB, lab := ds[0].Peer, ds[1].Peer, ds[2].Peer
	fmt.Println("network: 3 strict round-robin PoA authorities, one daemon per stakeholder")

	// Clinic A owns the master records for its patients.
	full := workload.Generate("master", 40, 7)
	clinicA.DB().PutTable(full)

	// Clinic B co-treats the same patients and keeps the treatment slice.
	treatCols := []string{workload.ColPatientID, workload.ColMedication, workload.ColClinical, workload.ColDosage}
	bTable, err := full.Project("treatment", treatCols, nil)
	must(err)
	clinicB.DB().PutTable(bTable)

	// The lab keeps pharmacology only.
	labCols := []string{workload.ColMedication, workload.ColMechanism}
	labTable, err := full.Project("pharma", labCols, []string{workload.ColMedication})
	must(err)
	lab.DB().PutTable(labTable)

	// Share 1: Clinic A <-> Clinic B on the treatment slice; both may
	// update dosage and clinical data, only A may change medication.
	must(clinicA.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          "treatment:A-B",
		SourceTable: "master",
		Lens:        bx.Project("treatA", treatCols, nil),
		ViewName:    "treatA",
		Peers:       []identity.Address{clinicA.Address(), clinicB.Address()},
		WritePerm: map[string][]identity.Address{
			workload.ColDosage:     {clinicA.Address(), clinicB.Address()},
			workload.ColClinical:   {clinicA.Address(), clinicB.Address()},
			workload.ColMedication: {clinicA.Address()},
		},
	}))
	_, err = clinicB.WaitForShare(ctx, "treatment:A-B")
	must(err)
	must(clinicB.AttachShare("treatment:A-B", "treatment", bx.Project("treatB", treatCols, nil), "treatB"))

	// Share 2: Clinic A <-> Lab on pharmacology; the lab owns mechanism.
	must(clinicA.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          "pharma:A-Lab",
		SourceTable: "master",
		Lens:        bx.Project("pharmaA", labCols, []string{workload.ColMedication}),
		ViewName:    "pharmaA",
		Peers:       []identity.Address{clinicA.Address(), lab.Address()},
		WritePerm:   map[string][]identity.Address{workload.ColMechanism: {lab.Address()}},
	}))
	_, err = lab.WaitForShare(ctx, "pharma:A-Lab")
	must(err)
	must(lab.AttachShare("pharma:A-Lab", "pharma",
		bx.Project("pharmaLab", labCols, []string{workload.ColMedication}), "pharmaLab"))
	fmt.Println("shares registered: treatment:A-B, pharma:A-Lab")

	// Clinic B adjusts dosages while the lab revises mechanisms. The two
	// shares are independent, so the bursts interleave freely; within
	// each share the contract serializes.
	update := func(p *core.Peer, table string, key reldb.Row, col, val string) {
		must(p.UpdateSource(table, func(t *reldb.Table) error {
			return t.Update(key, map[string]reldb.Value{col: reldb.S(val)})
		}))
		props, err := p.SyncShares(ctx, table)
		must(err)
		for _, pr := range props {
			must(p.WaitFinal(ctx, pr.ShareID, pr.Seq))
		}
	}
	pharma, err := lab.Source("pharma")
	must(err)
	meds := pharma.RowsCanonical()[:5]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			update(clinicB, "treatment", reldb.Row{reldb.I(int64(188 + i))}, workload.ColDosage, fmt.Sprintf("adjusted-%d", i))
		}
	}()
	go func() {
		defer wg.Done()
		for i, med := range meds {
			update(lab, "pharma", reldb.Row{med[0]}, workload.ColMechanism, fmt.Sprintf("MeA-rev-%d", i))
		}
	}()
	wg.Wait()
	fmt.Println("10 finalized updates across 2 shares")

	// Every replica agrees, and Clinic A's master absorbed both streams.
	hash := func(p *core.Peer, share string) [32]byte {
		v, err := p.View(share)
		must(err)
		return v.Hash()
	}
	fmt.Printf("replica agreement: treatment %v, pharma %v\n",
		hash(clinicA, "treatment:A-B") == hash(clinicB, "treatment:A-B"),
		hash(clinicA, "pharma:A-Lab") == hash(lab, "pharma:A-Lab"))
	master, err := clinicA.Source("master")
	must(err)
	dosage, err := master.Value(reldb.Row{reldb.I(188)}, workload.ColDosage)
	must(err)
	fmt.Printf("clinic A master record 188 now: dosage=%v\n", dosage)

	// Every node agrees on the ledger.
	fmt.Printf("state roots equal across nodes: %v\n", statesAgree(ds, 10*time.Second))
	must(stopDaemons(ds))
	// Output:
	// network: 3 strict round-robin PoA authorities, one daemon per stakeholder
	// shares registered: treatment:A-B, pharma:A-Lab
	// 10 finalized updates across 2 shares
	// replica agreement: treatment true, pharma true
	// clinic A master record 188 now: dosage=adjusted-0
	// state roots equal across nodes: true
}

// statesAgree reports whether every daemon's node reaches the same head
// state root within the time given. The last block of a run commits on
// one node first and reaches the others a gossip hop later, so each node
// is waited for, block by block, until all stand at one height.
func statesAgree(ds []*daemon.Daemon, within time.Duration) bool {
	timeout := time.After(within)
	for {
		top := uint64(0)
		for _, d := range ds {
			b, _ := d.Node.Head()
			top = max(top, b.Header.Height)
		}
		for _, d := range ds {
			for {
				applied := d.Node.BlockApplied()
				if b, _ := d.Node.Head(); b.Header.Height >= top {
					break
				}
				select {
				case <-applied:
				case <-timeout:
					return false
				}
			}
		}
		level, agree := true, true
		b0, s0 := ds[0].Node.Head()
		for _, d := range ds[1:] {
			b, s := d.Node.Head()
			level = level && b.Header.Height == b0.Header.Height
			agree = agree && s.Root() == s0.Root()
		}
		if level {
			return agree
		}
		// A block landed while the others were waited for: level again.
	}
}
