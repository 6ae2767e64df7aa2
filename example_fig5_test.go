package medshare

import (
	"context"
	"fmt"
	"log"
	"time"

	"medshare/internal/audit"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Example_fig5Workflow replays the paper's Section III-E case study step
// by step, one daemon per stakeholder: the researcher revises a mechanism
// of action, the update flows D2 → D23 → (blockchain) → D32 → D3, the
// doctor re-derives the other share over D3 (step 6), then separately
// adjusts a dosage that flows D3 → D31 → (blockchain) → D13 → D1. Every
// numbered step matches Fig. 5.
func Example_fig5Workflow() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ds := stakeholders("fig5", "Patient", "Doctor", "Researcher")
	patient, doctor, researcher := ds[0].Peer, ds[1].Peer, ds[2].Peer
	if err := bindFig1(ctx, workload.Fig1Data("full"), patient, doctor, researcher); err != nil {
		log.Fatal(err)
	}

	show := func(title string, t *reldb.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s ---\n%s", title, reldb.Format(t))
	}
	fmt.Println("=== Fig. 5 workflow on the Fig. 1 data ===")
	d2, err := researcher.Source("D2")
	show("Researcher D2 (before)", d2, err)
	d3, err := doctor.Source("D3")
	show("Doctor D3 (before)", d3, err)

	// Step 1: the researcher updates MeA1 locally; BX23-get regenerates
	// D23 when the update is proposed.
	fmt.Println("\n[step 1] Researcher updates the mechanism of Ibuprofen in D2 and runs BX23-get")
	err = researcher.UpdateSource("D2", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.S("Ibuprofen")},
			map[string]reldb.Value{workload.ColMechanism: reldb.S("MeA1-revised")})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: request the update on the smart contract.
	fmt.Println("[step 2] Researcher sends the update request to the sharereg contract")
	props, err := researcher.SyncShares(ctx, "D2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("         admitted as %s seq %d (changed cols %v)\n",
		props[0].ShareID, props[0].Seq, props[0].Cols)

	// Steps 3-5 run in the doctor's daemon: contract notification,
	// direct data fetch from the researcher, BX32-put.
	fmt.Println("[steps 3-5] Doctor is notified, fetches D32 from the researcher, and runs BX32-put")
	if err := researcher.WaitFinal(ctx, props[0].ShareID, props[0].Seq); err != nil {
		log.Fatal(err)
	}
	d3, err = doctor.Source("D3")
	show("Doctor D3 (after steps 1-5)", d3, err)

	// Step 6: the doctor's peer re-derives D31, the other share over D3.
	// The mechanism column is not visible through D31, so nothing changes
	// and nothing is proposed: exactly the paper's case, where steps
	// 7-11 happen only because the doctor chooses to edit the dosage.
	fmt.Println("\n[step 6] The doctor re-derives D31: no change (mechanism is not shared with the patient)")

	// Steps 7-8: the doctor modifies the dosage and requests the update.
	fmt.Println("[steps 7-8] Doctor updates the dosage for patient 188 and requests the update on-chain")
	err = doctor.UpdateSource("D3", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{workload.ColDosage: reldb.S("two tablets every 8h")})
	})
	if err != nil {
		log.Fatal(err)
	}
	props, err = doctor.SyncShares(ctx, "D3")
	if err != nil {
		log.Fatal(err)
	}

	// Steps 9-11: the patient is notified, fetches D31, runs BX13-put.
	fmt.Println("[steps 9-11] Patient is notified, fetches the new D31, and runs BX13-put into D1")
	if err := doctor.WaitFinal(ctx, props[0].ShareID, props[0].Seq); err != nil {
		log.Fatal(err)
	}
	d1, err := patient.Source("D1")
	show("Patient D1 (after steps 7-11)", d1, err)

	// The ledger recorded everything.
	recs, err := audit.New(ds[1].Node.Store(), ds[1].Node.Registry()).History("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== ledger history (%d transactions) ===\n", len(recs))
	for _, r := range recs {
		status := "ok"
		if !r.OK {
			status = "DENIED"
		}
		fmt.Printf("  %-16s %-10s seq %d  cols %v  [%s]\n", r.Fn, r.ShareID, r.Seq, r.Cols, status)
	}
	if err := stopDaemons(ds); err != nil {
		log.Fatal(err)
	}
	// Output:
	// === Fig. 5 workflow on the Fig. 1 data ===
	//
	// --- Researcher D2 (before) ---
	// D2 (key: medication_name)
	// medication_name | mechanism_of_action | mode_of_action
	// --------------- | ------------------- | --------------
	// Ibuprofen       | MeA1                | MoA1
	// Wellbutrin      | MeA2                | MoA2
	//
	// --- Doctor D3 (before) ---
	// D3 (key: patient_id)
	// patient_id | medication_name | clinical_data | dosage              | mechanism_of_action
	// ---------- | --------------- | ------------- | ------------------- | -------------------
	// 188        | Ibuprofen       | CliD1         | one tablet every 4h | MeA1
	// 189        | Wellbutrin      | CliD2         | 100 mg twice daily  | MeA2
	//
	// [step 1] Researcher updates the mechanism of Ibuprofen in D2 and runs BX23-get
	// [step 2] Researcher sends the update request to the sharereg contract
	//          admitted as D23&D32 seq 1 (changed cols [mechanism_of_action])
	// [steps 3-5] Doctor is notified, fetches D32 from the researcher, and runs BX32-put
	//
	// --- Doctor D3 (after steps 1-5) ---
	// D3 (key: patient_id)
	// patient_id | medication_name | clinical_data | dosage              | mechanism_of_action
	// ---------- | --------------- | ------------- | ------------------- | -------------------
	// 188        | Ibuprofen       | CliD1         | one tablet every 4h | MeA1-revised
	// 189        | Wellbutrin      | CliD2         | 100 mg twice daily  | MeA2
	//
	// [step 6] The doctor re-derives D31: no change (mechanism is not shared with the patient)
	// [steps 7-8] Doctor updates the dosage for patient 188 and requests the update on-chain
	// [steps 9-11] Patient is notified, fetches the new D31, and runs BX13-put into D1
	//
	// --- Patient D1 (after steps 7-11) ---
	// D1 (key: patient_id)
	// patient_id | medication_name | clinical_data | address | dosage
	// ---------- | --------------- | ------------- | ------- | --------------------
	// 188        | Ibuprofen       | CliD1         | Sapporo | two tablets every 8h
	// 189        | Wellbutrin      | CliD2         | Osaka   | 100 mg twice daily
	//
	// === ledger history (6 transactions) ===
	//   register         D13&D31    seq 0  cols []  [ok]
	//   register         D23&D32    seq 0  cols []  [ok]
	//   request_update   D23&D32    seq 1  cols [mechanism_of_action]  [ok]
	//   ack_update       D23&D32    seq 1  cols [mechanism_of_action]  [ok]
	//   request_update   D13&D31    seq 1  cols [dosage]  [ok]
	//   ack_update       D13&D31    seq 1  cols [dosage]  [ok]
}
