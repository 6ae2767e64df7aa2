package medshare

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"medshare/internal/audit"
	"medshare/internal/chain"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Example_auditLog demonstrates the ledger properties of Section III-B:
// every update on shared medical data, denied attempts included, is
// permanently recorded, any party can reconstruct the history by
// replaying the chain, and tampering is detected.
func Example_auditLog() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	ds := stakeholders("audit", "Patient", "Doctor", "Researcher")
	patient, doctor, researcher := ds[0].Peer, ds[1].Peer, ds[2].Peer
	must(bindFig1(ctx, workload.Generate("full", 10, 99), patient, doctor, researcher))
	names := map[identity.Address]string{}
	for _, d := range ds {
		names[d.Identity.Address()] = d.Identity.Name
	}

	set := func(p *core.Peer, table, col, val string) {
		must(p.UpdateSource(table, func(t *reldb.Table) error {
			return t.Update(reldb.Row{reldb.I(188)}, map[string]reldb.Value{col: reldb.S(val)})
		}))
	}
	sync := func(p *core.Peer, table string) error {
		props, err := p.SyncShares(ctx, table)
		if err != nil {
			return err
		}
		for _, pr := range props {
			if err := p.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
				return err
			}
		}
		return nil
	}

	// Some history: two legitimate updates, one denied attempt, one
	// permission change, then a now-legitimate retry.
	set(doctor, "D3", workload.ColDosage, "updated once")
	must(sync(doctor, "D3"))
	set(patient, "D1", workload.ColClinical, "patient amendment")
	must(sync(patient, "D1"))

	// Denied: the patient tries to change the dosage.
	set(patient, "D1", workload.ColDosage, "self-medication")
	if err := sync(patient, "D1"); err == nil {
		log.Fatal("the patient's dosage update was admitted")
	}
	fmt.Println("the patient's dosage update was denied, as configured")
	// Revert the local attempt so later syncs stay clean.
	set(patient, "D1", workload.ColDosage, "updated once")

	// The doctor grants the permission (the Fig. 3 narrative), and the
	// patient retries successfully.
	must(doctor.SetPermission(ctx, workload.ShareIDD13, workload.ColDosage,
		[]identity.Address{doctor.Address(), patient.Address()}))
	set(patient, "D1", workload.ColDosage, "patient-adjusted")
	must(sync(patient, "D1"))

	// Reconstruct the history from the doctor's copy of the chain alone.
	auditor := audit.New(ds[1].Node.Store(), ds[1].Node.Registry())
	must(auditor.VerifyIntegrity())
	fmt.Println("chain integrity: OK (linkage, signatures, conflict rule, state roots)")
	recs, err := auditor.History(workload.ShareIDD13)
	must(err)
	fmt.Printf("\nfull history of share %s (%d transactions):\n", workload.ShareIDD13, len(recs))
	for _, r := range recs {
		status := "ok"
		if !r.OK {
			status = "DENIED: " + r.Err
			for a, name := range names {
				status = strings.ReplaceAll(status, a.String(), name)
			}
		}
		fmt.Printf("  %-15s by %-7s seq %d cols %-17s %s\n", r.Fn, names[r.From], r.Seq, fmt.Sprint(r.Cols), status)
	}

	// Stop the stakeholders, tamper with the doctor's in-memory chain and
	// show the detection.
	must(stopDaemons(ds))
	for _, b := range ds[1].Node.Store().MainChain() {
		if len(b.Txs) > 0 {
			b.Txs[0].Args = [][]byte{[]byte(`{"forged":true}`)}
			break
		}
	}
	if err := auditor.VerifyIntegrity(); !errors.Is(err, chain.ErrBadTxRoot) {
		log.Fatalf("tampering went undetected: %v", err)
	}
	fmt.Println("\ntamper detection:", chain.ErrBadTxRoot)
	// Output:
	// the patient's dosage update was denied, as configured
	// chain integrity: OK (linkage, signatures, conflict rule, state roots)
	//
	// full history of share D13&D31 (9 transactions):
	//   register        by Doctor  seq 0 cols []                ok
	//   request_update  by Doctor  seq 1 cols [dosage]          ok
	//   ack_update      by Patient seq 1 cols [dosage]          ok
	//   request_update  by Patient seq 2 cols [clinical_data]   ok
	//   ack_update      by Doctor  seq 2 cols [clinical_data]   ok
	//   request_update  by Patient seq 0 cols []                DENIED: sharereg: write permission denied: Patient may not write dosage of D13&D31
	//   set_permission  by Doctor  seq 0 cols []                ok
	//   request_update  by Patient seq 3 cols [dosage]          ok
	//   ack_update      by Doctor  seq 3 cols [dosage]          ok
	//
	// tamper detection: chain: block tx root mismatch
}
