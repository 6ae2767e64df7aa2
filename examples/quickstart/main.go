// Command quickstart is the smallest complete medshare program: two
// stakeholders, one fine-grained share, one permission-checked update
// propagated through the blockchain and embedded with a bidirectional
// transformation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"medshare"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// 1. Boot an in-process network: one proof-of-authority blockchain
	// node plus the simulated peer-to-peer data channel.
	nw, err := medshare.NewNetwork(medshare.NetworkConfig{
		BlockInterval: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Stop()

	// 2. Two stakeholders, each with a private local database.
	doctor, err := nw.NewPeer("Doctor", 0)
	if err != nil {
		log.Fatal(err)
	}
	patient, err := nw.NewPeer("Patient", 0)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Both hold (pre-agreed, consistent) medical records locally. The
	// doctor's table has a private column the patient never sees.
	schema := medshare.Schema{
		Name: "records",
		Columns: []medshare.Column{
			{Name: "patient_id", Type: medshare.KindInt},
			{Name: "dosage", Type: medshare.KindString},
			{Name: "treatment_notes", Type: medshare.KindString}, // doctor-private
		},
		Key: []string{"patient_id"},
	}
	docTable, err := medshare.NewTable(schema)
	if err != nil {
		log.Fatal(err)
	}
	_ = docTable.Insert(medshare.Row{medshare.I(188), medshare.S("one tablet every 4h"), medshare.S("responding well")})
	doctor.DB().PutTable(docTable)

	patSchema := schema
	patSchema.Columns = schema.Columns[:2] // patient holds id + dosage only
	patTable, err := medshare.NewTable(patSchema)
	if err != nil {
		log.Fatal(err)
	}
	_ = patTable.Insert(medshare.Row{medshare.I(188), medshare.S("one tablet every 4h")})
	patient.DB().PutTable(patTable)

	// 4. The doctor registers the share on-chain: the view is the
	// projection onto (patient_id, dosage); only the doctor may write
	// dosage (Fig. 3-style attribute-level permission).
	shareCols := []string{"patient_id", "dosage"}
	err = doctor.RegisterShare(ctx, medshare.RegisterShareArgs{
		ID:          "dosage-share",
		SourceTable: "records",
		Lens:        medshare.ProjectLens("doctor-view", shareCols, nil),
		ViewName:    "doctor-view",
		Peers:       []medshare.Address{doctor.Address(), patient.Address()},
		WritePerm: map[string][]medshare.Address{
			"dosage": {doctor.Address()},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The patient binds its side of the share with its own lens.
	err = patient.AttachShare("dosage-share", "records",
		medshare.ProjectLens("patient-view", shareCols, nil), "patient-view")
	if err != nil {
		log.Fatal(err)
	}

	// 6. The doctor changes the dosage in its full records and proposes
	// the update on the share.
	err = doctor.UpdateSource("records", func(t *medshare.Table) error {
		return t.Update(medshare.Row{medshare.I(188)},
			map[string]medshare.Value{"dosage": medshare.S("two tablets every 8h")})
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := doctor.ProposeUpdate(ctx, "dosage-share")
	if err != nil {
		log.Fatal(err)
	}
	if err := doctor.WaitFinal(ctx, "dosage-share", res.Seq); err != nil {
		log.Fatal(err)
	}

	// 7. The patient's local database now carries the new dosage —
	// synchronized through the chain-gated protocol and the lens put.
	got, err := patient.Source("records")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("patient's local records after the doctor's update:")
	fmt.Print(medshare.FormatTable(got))

	// 8. The reverse direction is permission-checked: the patient cannot
	// change the dosage.
	_ = patient.UpdateSource("records", func(t *medshare.Table) error {
		return t.Update(medshare.Row{medshare.I(188)},
			map[string]medshare.Value{"dosage": medshare.S("whatever")})
	})
	if _, err := patient.SyncShares(ctx, "records"); err != nil {
		fmt.Printf("\npatient's dosage update was rejected, as configured:\n  %v\n", err)
	}
}
