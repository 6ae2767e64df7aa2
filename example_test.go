package medshare

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/daemon"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// stakeholders starts one daemon per name, the way cmd/medshared runs
// the paper's Fig. 2: each stakeholder has its own local database, its
// own strict-PoA blockchain node running the share contract, and a data
// channel, all over loopback TCP. Identities derive from the network
// name and the stakeholder's name.
func stakeholders(network string, names ...string) []*daemon.Daemon {
	ps := make([]daemon.Participant, len(names))
	for i, name := range names {
		ps[i] = daemon.Participant{Name: name, Seed: network + "/" + name, Addr: "127.0.0.1:0"}
	}
	ds, err := startDaemons(daemon.Config{
		Participants:  ps,
		Network:       network,
		BlockInterval: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

// Example_quickstart is the smallest complete program: two stakeholders,
// one fine-grained share, one permission-checked update propagated
// through the blockchain and embedded with a bidirectional
// transformation, and one update the share's permissions refuse.
func Example_quickstart() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// 1. Two stakeholders, each running its own daemon.
	ds := stakeholders("quickstart", "Doctor", "Patient")
	doctor, patient := ds[0].Peer, ds[1].Peer

	// 2. Both hold (pre-agreed, consistent) medical records locally. The
	// doctor's table has a private column the patient never sees.
	schema := reldb.Schema{
		Name: "records",
		Columns: []reldb.Column{
			{Name: "patient_id", Type: reldb.KindInt},
			{Name: "dosage", Type: reldb.KindString},
			{Name: "treatment_notes", Type: reldb.KindString}, // doctor-private
		},
		Key: []string{"patient_id"},
	}
	docTable := reldb.MustNewTable(schema)
	docTable.MustInsert(reldb.Row{reldb.I(188), reldb.S("one tablet every 4h"), reldb.S("responding well")})
	doctor.DB().PutTable(docTable)

	patSchema := schema
	patSchema.Columns = schema.Columns[:2] // the patient holds id + dosage only
	patTable := reldb.MustNewTable(patSchema)
	patTable.MustInsert(reldb.Row{reldb.I(188), reldb.S("one tablet every 4h")})
	patient.DB().PutTable(patTable)

	// 3. The doctor registers the share on-chain: the view is the
	// projection onto (patient_id, dosage), and only the doctor may write
	// dosage (Fig. 3-style attribute-level permission).
	shareCols := []string{"patient_id", "dosage"}
	err := doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          "dosage-share",
		SourceTable: "records",
		Lens:        bx.Project("doctor-view", shareCols, nil),
		ViewName:    "doctor-view",
		Peers:       []identity.Address{doctor.Address(), patient.Address()},
		WritePerm:   map[string][]identity.Address{"dosage": {doctor.Address()}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Once the registration reaches its node, the patient binds its
	// side of the share with its own lens.
	if _, err := patient.WaitForShare(ctx, "dosage-share"); err != nil {
		log.Fatal(err)
	}
	err = patient.AttachShare("dosage-share", "records",
		bx.Project("patient-view", shareCols, nil), "patient-view")
	if err != nil {
		log.Fatal(err)
	}

	// 5. The doctor changes the dosage in its full records and proposes
	// the update on the share; it is final once the patient has applied
	// and acknowledged it.
	err = doctor.UpdateSource("records", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{"dosage": reldb.S("two tablets every 8h")})
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := doctor.UpdateView(ctx, "dosage-share", nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := doctor.WaitFinal(ctx, "dosage-share", res.Seq); err != nil {
		log.Fatal(err)
	}

	// 6. The patient's local database now carries the new dosage,
	// synchronized through the chain-gated protocol and the lens put.
	got, err := patient.Source("records")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("patient's local records after the doctor's update:")
	fmt.Print(reldb.Format(got))

	// 7. The reverse direction is permission-checked: the patient cannot
	// change the dosage.
	err = patient.UpdateSource("records", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(188)},
			map[string]reldb.Value{"dosage": reldb.S("whatever")})
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err = patient.SyncShares(ctx, "records"); err == nil {
		log.Fatal("the patient's dosage update was admitted")
	}
	fmt.Printf("\npatient's dosage update was rejected, as configured:\n  %s\n",
		strings.ReplaceAll(err.Error(), patient.Address().String(), "Patient"))
	if err := stopDaemons(ds); err != nil {
		log.Fatal(err)
	}
	// Output:
	// patient's local records after the doctor's update:
	// records (key: patient_id)
	// patient_id | dosage
	// ---------- | --------------------
	// 188        | two tablets every 8h
	//
	// patient's dosage update was rejected, as configured:
	//   core: update on dosage-share denied: core: transaction rejected by contract: sharereg: write permission denied: Patient may not write dosage of dosage-share
}
