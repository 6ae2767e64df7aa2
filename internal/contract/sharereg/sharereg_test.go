package sharereg

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// harness drives the contract through the real runtime against one store.
type harness struct {
	t     *testing.T
	reg   *contract.Registry
	store *statedb.Store
	next  uint64
}

func newHarness(t *testing.T) *harness {
	return &harness{t: t, reg: contract.NewRegistry(New()), store: statedb.NewStore()}
}

// invoke executes one function as caller and commits on success.
func (h *harness) invoke(caller *identity.Identity, fn string, arg any) contract.Receipt {
	h.t.Helper()
	raw, err := json.Marshal(arg)
	if err != nil {
		h.t.Fatal(err)
	}
	if s, ok := arg.(string); ok {
		raw = []byte(s)
	}
	tx := &chain.Tx{Contract: ContractName, Fn: fn, Args: [][]byte{raw}, Nonce: h.next}
	h.next++
	tx.Sign(caller)
	rcpt := contract.Execute(h.reg, h.store, tx, h.next, int64(h.next)*1000)
	if rcpt.OK {
		h.store.Commit(rcpt.Writes, statedb.Version{Height: h.next})
	}
	return rcpt
}

// mustOK asserts success.
func (h *harness) mustOK(caller *identity.Identity, fn string, arg any) contract.Receipt {
	h.t.Helper()
	rcpt := h.invoke(caller, fn, arg)
	if !rcpt.OK {
		h.t.Fatalf("%s failed: %s", fn, rcpt.Err)
	}
	return rcpt
}

// mustFail asserts failure mentioning substr.
func (h *harness) mustFail(caller *identity.Identity, fn string, arg any, substr string) {
	h.t.Helper()
	rcpt := h.invoke(caller, fn, arg)
	if rcpt.OK {
		h.t.Fatalf("%s unexpectedly succeeded", fn)
	}
	if !strings.Contains(rcpt.Err, substr) {
		h.t.Fatalf("%s error = %q, want substring %q", fn, rcpt.Err, substr)
	}
}

func (h *harness) meta(id string) *Meta {
	h.t.Helper()
	m, err := ReadMeta(h.store, id)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

var (
	doctor     = identity.MustNew("Doctor")
	patient    = identity.MustNew("Patient")
	researcher = identity.MustNew("Researcher")
	stranger   = identity.MustNew("Stranger")
)

func regArgs() RegisterArgs {
	return RegisterArgs{
		ID:        "D13&D31",
		Peers:     []identity.Address{patient.Address(), doctor.Address()},
		Authority: doctor.Address(),
		Columns:   []string{"patient_id", "medication_name", "clinical_data", "dosage"},
		WritePerm: map[string][]identity.Address{
			"medication_name": {doctor.Address()},
			"dosage":          {doctor.Address()},
			"clinical_data":   {patient.Address(), doctor.Address()},
		},
	}
}

func TestRegisterAndGet(t *testing.T) {
	h := newHarness(t)
	rcpt := h.mustOK(doctor, FnRegister, regArgs())
	if len(rcpt.Events) != 1 || rcpt.Events[0].Name != EvRegistered {
		t.Fatalf("events = %+v", rcpt.Events)
	}
	m := h.meta("D13&D31")
	if m.Owner != doctor.Address() || m.Authority != doctor.Address() {
		t.Fatal("owner/authority wrong")
	}
	if m.Seq != 0 || m.Pending != nil {
		t.Fatal("fresh share must be at seq 0 with no pending")
	}
}

func TestRegisterValidation(t *testing.T) {
	h := newHarness(t)

	a := regArgs()
	a.ID = ""
	h.mustFail(doctor, FnRegister, a, "required")

	a = regArgs()
	a.Peers = []identity.Address{doctor.Address()}
	h.mustFail(doctor, FnRegister, a, "required")

	// Registrant must be a peer.
	h.mustFail(stranger, FnRegister, regArgs(), "not a sharing peer")

	// Authority must be a peer.
	a = regArgs()
	a.Authority = stranger.Address()
	h.mustFail(doctor, FnRegister, a, "not a peer")

	// Permission on unknown column.
	a = regArgs()
	a.WritePerm = map[string][]identity.Address{"ghost": {doctor.Address()}}
	h.mustFail(doctor, FnRegister, a, "unknown column")

	// Writer who is not a peer.
	a = regArgs()
	a.WritePerm = map[string][]identity.Address{"dosage": {stranger.Address()}}
	h.mustFail(doctor, FnRegister, a, "not a peer")

	// Duplicate registration.
	h.mustOK(doctor, FnRegister, regArgs())
	h.mustFail(doctor, FnRegister, regArgs(), "already registered")
}

func TestUpdateLifecycle(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())

	up := UpdateArgs{ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h1", Kind: "update", BaseSeq: 0}
	rcpt := h.mustOK(doctor, FnRequestUpdate, up)
	if len(rcpt.Events) != 1 || rcpt.Events[0].Name != EvUpdateRequested {
		t.Fatalf("events = %+v", rcpt.Events)
	}
	m := h.meta("D13&D31")
	if m.Pending == nil || m.Pending.Seq != 1 || !m.Pending.Acked[doctor.Address().String()] {
		t.Fatalf("pending = %+v", m.Pending)
	}

	// The paper's gate: no second update while one is pending.
	h.mustFail(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h2", BaseSeq: 0,
	}, "not yet acknowledged")

	// Counterparty acks; all peers acked -> finalize.
	rcpt = h.mustOK(patient, FnAckUpdate, AckArgs{ShareID: "D13&D31", Seq: 1})
	finalSeen := false
	for _, ev := range rcpt.Events {
		if ev.Name == EvUpdateFinal {
			finalSeen = true
		}
	}
	if !finalSeen {
		t.Fatal("final event missing")
	}
	m = h.meta("D13&D31")
	if m.Seq != 1 || m.Pending != nil {
		t.Fatalf("meta after final = %+v", m)
	}
	if m.LastPayloadHash != "h1" || m.LastFrom != doctor.Address() {
		t.Fatal("last update metadata wrong")
	}
	if m.UpdatedAtMicro == 0 {
		t.Fatal("last update time not set")
	}

	// Next update must base on seq 1.
	h.mustFail(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h3", BaseSeq: 0,
	}, "sequence mismatch")
	h.mustOK(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h3", BaseSeq: 1,
	})
}

func TestUpdatePermissionChecks(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())

	// Patient may not write dosage (Fig. 3).
	h.mustFail(patient, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h", BaseSeq: 0,
	}, "write permission denied")

	// Patient may write clinical data.
	h.mustOK(patient, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"clinical_data"}, PayloadHash: "h", BaseSeq: 0,
	})

	// Column with no permission entry is read-only for everyone.
	h2 := newHarness(t)
	h2.mustOK(doctor, FnRegister, regArgs())
	h2.mustFail(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"patient_id"}, PayloadHash: "h", BaseSeq: 0,
	}, "write permission denied")

	// Stranger is rejected as non-peer.
	h2.mustFail(stranger, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h", BaseSeq: 0,
	}, "not a sharing peer")

	// Unknown column.
	h2.mustFail(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"ghost"}, PayloadHash: "h", BaseSeq: 0,
	}, "unknown column")

	// Empty column list.
	h2.mustFail(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", PayloadHash: "h", BaseSeq: 0,
	}, "no columns")
}

func TestAckValidation(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())

	h.mustFail(patient, FnAckUpdate, AckArgs{ShareID: "D13&D31", Seq: 1}, "no pending")

	h.mustOK(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h", BaseSeq: 0,
	})
	h.mustFail(patient, FnAckUpdate, AckArgs{ShareID: "D13&D31", Seq: 9}, "sequence mismatch")
	h.mustFail(stranger, FnAckUpdate, AckArgs{ShareID: "D13&D31", Seq: 1}, "not a sharing peer")
	// The proposer auto-acked; double ack rejected.
	h.mustFail(doctor, FnAckUpdate, AckArgs{ShareID: "D13&D31", Seq: 1}, "already acknowledged")
}

func TestRejectUpdate(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())
	h.mustOK(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h", BaseSeq: 0,
	})
	rcpt := h.mustOK(patient, FnRejectUpdate, RejectArgs{ShareID: "D13&D31", Seq: 1, Reason: "no translation"})
	found := false
	for _, ev := range rcpt.Events {
		if ev.Name == EvUpdateRejected {
			found = true
		}
	}
	if !found {
		t.Fatal("rejected event missing")
	}
	m := h.meta("D13&D31")
	if m.Pending != nil || m.Seq != 0 {
		t.Fatalf("meta after reject = %+v", m)
	}
	// The share accepts a fresh update afterwards.
	h.mustOK(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h2", BaseSeq: 0,
	})
}

func TestSetPermissionAuthority(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())

	// The Fig. 3 narrative: doctor grants patient write access to dosage.
	h.mustOK(doctor, FnSetPermission, PermissionArgs{
		ShareID: "D13&D31", Column: "dosage",
		Writers: []identity.Address{doctor.Address(), patient.Address()},
	})
	m := h.meta("D13&D31")
	if len(m.WritePerm["dosage"]) != 2 {
		t.Fatalf("writers = %v", m.WritePerm["dosage"])
	}
	// Patient can now update dosage.
	h.mustOK(patient, FnRequestUpdate, UpdateArgs{
		ShareID: "D13&D31", Cols: []string{"dosage"}, PayloadHash: "h", BaseSeq: 0,
	})

	// Non-authority cannot change permissions.
	h.mustFail(patient, FnSetPermission, PermissionArgs{
		ShareID: "D13&D31", Column: "dosage", Writers: []identity.Address{patient.Address()},
	}, "lacks authority")
	// Unknown column.
	h.mustFail(doctor, FnSetPermission, PermissionArgs{
		ShareID: "D13&D31", Column: "ghost", Writers: nil,
	}, "unknown column")
	// Writers must be peers.
	h.mustFail(doctor, FnSetPermission, PermissionArgs{
		ShareID: "D13&D31", Column: "dosage", Writers: []identity.Address{stranger.Address()},
	}, "not a peer")
}

func TestSetAuthority(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())
	h.mustOK(doctor, FnSetAuthority, AuthorityArgs{ShareID: "D13&D31", Authority: patient.Address()})
	m := h.meta("D13&D31")
	if m.Authority != patient.Address() {
		t.Fatal("authority not transferred")
	}
	// Old authority lost the power.
	h.mustFail(doctor, FnSetAuthority, AuthorityArgs{ShareID: "D13&D31", Authority: doctor.Address()}, "lacks authority")
	// New authority must be a peer.
	h.mustFail(patient, FnSetAuthority, AuthorityArgs{ShareID: "D13&D31", Authority: stranger.Address()}, "not a peer")
}

func TestRemove(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())
	h.mustFail(patient, FnRemove, "D13&D31", "not the share owner")
	h.mustOK(doctor, FnRemove, "D13&D31")
	if _, err := ReadMeta(h.store, "D13&D31"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed share reads %v, want ErrNotFound", err)
	}
	h.mustFail(doctor, FnRemove, "D13&D31", "not found")
}

// TestGetAndList: every registered share's metadata reads back from
// state through ReadMeta, and a share never registered wraps
// ErrNotFound.
func TestGetAndList(t *testing.T) {
	h := newHarness(t)
	h.mustOK(doctor, FnRegister, regArgs())
	a2 := regArgs()
	a2.ID = "A&B"
	h.mustOK(doctor, FnRegister, a2)

	for _, id := range []string{"D13&D31", "A&B"} {
		if m, err := ReadMeta(h.store, id); err != nil || m.ID != id {
			t.Fatalf("ReadMeta(%s) = %v, %v", id, m, err)
		}
	}
	if _, err := ReadMeta(h.store, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadMeta(ghost) = %v, want ErrNotFound", err)
	}
	// The value under MetaKey is the encoding DecodeMeta reads.
	raw, _, _ := h.store.Get(MetaKey("A&B"))
	if m, err := DecodeMeta(raw); err != nil || m.ID != "A&B" {
		t.Fatalf("DecodeMeta = %v, %v", m, err)
	}
}

func TestUnknownFunction(t *testing.T) {
	h := newHarness(t)
	h.mustFail(doctor, "dance", "x", "unknown function")
}
