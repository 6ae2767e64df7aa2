// Command fig5workflow replays the paper's Section III-E case study
// step by step on real infrastructure: the researcher revises a mechanism
// of action, the update flows D2 → D23 → (blockchain) → D32 → D3, the
// doctor re-derives the other share over D3 (step 6), then separately
// adjusts a dosage that flows D3 → D31 → (blockchain) → D13 → D1.
//
// Run it and read the narration; every numbered step matches Fig. 5.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"medshare"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fmt.Println("=== Fig. 5 workflow on the Fig. 1 data ===")
	sc, err := medshare.NewFig1Scenario(ctx, medshare.NetworkConfig{
		BlockInterval: 5 * time.Millisecond,
	}, 0 /* exact Fig. 1 rows */, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Stop()

	show := func(title string, t *medshare.Table) {
		fmt.Printf("\n--- %s ---\n%s", title, medshare.FormatTable(t))
	}
	d2, _ := sc.Researcher.Source("D2")
	show("Researcher D2 (before)", d2)
	d3, _ := sc.Doctor.Source("D3")
	show("Doctor D3 (before)", d3)

	// Step 1: the researcher updates MeA1 locally and regenerates D23
	// with BX23-get.
	fmt.Println("\n[step 1] Researcher updates the mechanism of Ibuprofen in D2 and runs BX23-get")
	err = sc.Researcher.UpdateSource("D2", func(t *medshare.Table) error {
		return t.Update(medshare.Row{medshare.S("Ibuprofen")},
			map[string]medshare.Value{medshare.ColMechanism: medshare.S("MeA1-revised")})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: request the update on the smart contract.
	fmt.Println("[step 2] Researcher sends the update request to the sharereg contract")
	props, err := sc.Researcher.SyncShares(ctx, "D2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("         admitted as %s seq %d (changed cols %v)\n",
		props[0].ShareID, props[0].Seq, props[0].Cols)

	// Steps 3-5 run automatically in the doctor's event loop: contract
	// notification, direct data fetch from the researcher, BX32-put.
	fmt.Println("[steps 3-5] Doctor is notified, fetches D32 from the researcher, and runs BX32-put")
	if err := sc.Researcher.WaitFinal(ctx, props[0].ShareID, props[0].Seq); err != nil {
		log.Fatal(err)
	}
	d3, _ = sc.Doctor.Source("D3")
	show("Doctor D3 (after steps 1-5)", d3)

	// Step 6: the doctor's peer re-derives D31, the other share over D3.
	// The mechanism column is not visible through D31, so nothing changes
	// and nothing is proposed — exactly the paper's case, where steps
	// 7-11 happen only because the doctor *chooses* to edit the dosage.
	fmt.Println("\n[step 6] The doctor re-derives D31: no change (mechanism is not shared with the patient)")

	// Steps 7-8: the doctor modifies the dosage and requests the update.
	fmt.Println("[steps 7-8] Doctor updates the dosage for patient 188 and requests the update on-chain")
	err = sc.Doctor.UpdateSource("D3", func(t *medshare.Table) error {
		return t.Update(medshare.Row{medshare.I(188)},
			map[string]medshare.Value{medshare.ColDosage: medshare.S("two tablets every 8h")})
	})
	if err != nil {
		log.Fatal(err)
	}
	props, err = sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		log.Fatal(err)
	}

	// Steps 9-11: the patient is notified, fetches D31, runs BX13-put.
	fmt.Println("[steps 9-11] Patient is notified, fetches the new D31, and runs BX13-put into D1")
	if err := sc.Doctor.WaitFinal(ctx, props[0].ShareID, props[0].Seq); err != nil {
		log.Fatal(err)
	}

	d1, _ := sc.Patient.Source("D1")
	show("Patient D1 (after steps 7-11)", d1)

	// The ledger recorded everything.
	auditor := medshare.NewAuditor(sc.Network.Node(0))
	recs, err := auditor.History("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== ledger history (%d transactions) ===\n", len(recs))
	for _, r := range recs {
		status := "ok"
		if !r.OK {
			status = "DENIED"
		}
		fmt.Printf("  block %3d  %-16s %-10s seq %d  cols %v  [%s]\n",
			r.Height, r.Fn, r.ShareID, r.Seq, r.Cols, status)
	}
}
