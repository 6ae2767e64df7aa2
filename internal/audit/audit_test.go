package audit

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/node"
)

// buildLedger produces a chain with a realistic share history: register,
// a finalized update, a denied update, and a permission change.
func buildLedger(t *testing.T) (*node.Node, *identity.Identity, *identity.Identity) {
	t.Helper()
	nid := identity.MustNew("node")
	doctor := identity.MustNew("doctor")
	patient := identity.MustNew("patient")
	n, err := node.New(node.Config{
		NetworkName:   "audit-test",
		Identity:      nid,
		Engine:        consensus.NewPoA(false, nid.Address()),
		Registry:      contract.NewRegistry(sharereg.New()),
		BlockInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	send := func(from *identity.Identity, fn string, arg any) {
		t.Helper()
		raw, _ := json.Marshal(arg)
		tx := n.BuildTx(sharereg.ContractName, fn, "S", raw)
		tx.Sign(from)
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := n.TryProduce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	send(doctor, sharereg.FnRegister, sharereg.RegisterArgs{
		ID:        "S",
		Peers:     []identity.Address{doctor.Address(), patient.Address()},
		Authority: doctor.Address(),
		Columns:   []string{"dosage", "clinical"},
		WritePerm: map[string][]identity.Address{
			"dosage":   {doctor.Address()},
			"clinical": {doctor.Address(), patient.Address()},
		},
	})
	send(doctor, sharereg.FnRequestUpdate, sharereg.UpdateArgs{
		ShareID: "S", Cols: []string{"dosage"}, PayloadHash: "hash-1", Kind: "update", BaseSeq: 0,
	})
	send(patient, sharereg.FnAckUpdate, sharereg.AckArgs{ShareID: "S", Seq: 1})
	// A denied attempt (patient lacks dosage permission) still lands on
	// the ledger as a failed transaction.
	send(patient, sharereg.FnRequestUpdate, sharereg.UpdateArgs{
		ShareID: "S", Cols: []string{"dosage"}, PayloadHash: "hash-x", Kind: "update", BaseSeq: 1,
	})
	send(doctor, sharereg.FnSetPermission, sharereg.PermissionArgs{
		ShareID: "S", Column: "dosage",
		Writers: []identity.Address{doctor.Address(), patient.Address()},
	})
	return n, doctor, patient
}

func TestVerifyIntegrity(t *testing.T) {
	n, _, _ := buildLedger(t)
	a := New(n.Store(), n.Registry())
	if err := a.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryCompleteAndOrdered(t *testing.T) {
	n, doctor, patient := buildLedger(t)
	a := New(n.Store(), n.Registry())
	recs, err := a.History("S")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d, want 5", len(recs))
	}
	// Chain order.
	for i := 1; i < len(recs); i++ {
		if recs[i].Height < recs[i-1].Height {
			t.Fatal("history out of order")
		}
	}
	if recs[0].Fn != sharereg.FnRegister || !recs[0].OK {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Fn != sharereg.FnRequestUpdate || recs[1].Seq != 1 || recs[1].Author != doctor.Address() {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[2].Fn != sharereg.FnAckUpdate || !recs[2].Finalized || recs[2].From != patient.Address() {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	// The denied attempt is visible with its reason.
	if recs[3].OK || recs[3].Err == "" {
		t.Fatalf("rec3 = %+v", recs[3])
	}
	if recs[4].Fn != sharereg.FnSetPermission || !recs[4].OK {
		t.Fatalf("rec4 = %+v", recs[4])
	}
}

func TestHistoryAllShares(t *testing.T) {
	n, _, _ := buildLedger(t)
	a := New(n.Store(), n.Registry())
	all, err := a.History("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("records = %d", len(all))
	}
	none, err := a.History("ghost-share")
	if err != nil || len(none) != 0 {
		t.Fatalf("ghost history = %v, %v", none, err)
	}
}

func TestTamperDetection(t *testing.T) {
	n, _, _ := buildLedger(t)
	a := New(n.Store(), n.Registry())

	// Tamper with a committed transaction's argument in memory: the tx
	// root no longer matches.
	blocks := n.Store().MainChain()
	victim := blocks[2].Txs[0]
	victim.Args = [][]byte{[]byte(`{"shareId":"S","cols":["clinical"],"payloadHash":"forged","baseSeq":0}`)}
	if err := a.VerifyIntegrity(); err == nil {
		t.Fatal("tampered argument not detected")
	}
}
