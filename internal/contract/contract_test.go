package contract

import (
	"errors"
	"fmt"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// counter is a minimal deterministic contract for runtime tests.
type counter struct{}

func (counter) Name() string { return "counter" }

func (counter) Invoke(stub Stub, fn string, args [][]byte) error {
	switch fn {
	case "inc":
		key := "counter/" + string(args[0])
		var n byte
		if raw, ok := stub.GetState(key); ok {
			n = raw[0]
		}
		stub.PutState(key, []byte{n + 1})
		stub.EmitEvent("incremented", []byte(args[0]))
		return nil
	case "fail":
		stub.PutState("counter/garbage", []byte("should never commit"))
		return errors.New("deliberate failure")
	case "whoami":
		stub.PutState("counter/caller", []byte(stub.Caller().String()))
		return nil
	case "meta":
		stub.EmitEvent("time", []byte(fmt.Sprint(stub.BlockTimeMicro())))
		return nil
	default:
		return ErrUnknownFunction
	}
}

func makeTx(id *identity.Identity, contractName, fn string, args ...[]byte) *chain.Tx {
	tx := &chain.Tx{Contract: contractName, Fn: fn, Args: args, Nonce: 1}
	tx.Sign(id)
	return tx
}

func TestExecuteCommitsOnSuccess(t *testing.T) {
	reg := NewRegistry(counter{})
	store := statedb.NewStore()
	id := identity.MustNew("caller")
	tx := makeTx(id, "counter", "inc", []byte("a"))

	rcpt := Execute(reg, store, tx, 1, 1000)
	if !rcpt.OK {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if w := rcpt.Writes["counter/a"]; len(w) != 1 || w[0] != 1 {
		t.Fatalf("writes = %q", rcpt.Writes)
	}
	if len(rcpt.Events) != 1 || rcpt.Events[0].Name != "incremented" {
		t.Fatalf("events = %+v", rcpt.Events)
	}
	// Execute never commits; the store is untouched until the node does.
	if _, _, ok := store.Get("counter/a"); ok {
		t.Fatal("Execute mutated the store")
	}
	store.Commit(rcpt.Writes, statedb.Version{Height: 1})
	if raw, _, _ := store.Get("counter/a"); raw[0] != 1 {
		t.Fatal("write set wrong")
	}
}

func TestExecuteDiscardsWritesOnFailure(t *testing.T) {
	reg := NewRegistry(counter{})
	store := statedb.NewStore()
	id := identity.MustNew("caller")
	rcpt := Execute(reg, store, makeTx(id, "counter", "fail"), 1, 0)
	if rcpt.OK {
		t.Fatal("failure reported OK")
	}
	if rcpt.Err == "" {
		t.Fatal("missing error in receipt")
	}
	if len(rcpt.Writes) != 0 {
		t.Fatal("failed tx carries writes")
	}
	if len(rcpt.Events) != 0 {
		t.Fatal("failed tx carries events")
	}
}

func TestExecuteUnknownContract(t *testing.T) {
	reg := NewRegistry()
	store := statedb.NewStore()
	id := identity.MustNew("caller")
	rcpt := Execute(reg, store, makeTx(id, "ghost", "fn"), 1, 0)
	if rcpt.OK {
		t.Fatal("unknown contract succeeded")
	}
}

func TestStubExposesTxContext(t *testing.T) {
	reg := NewRegistry(counter{})
	store := statedb.NewStore()
	id := identity.MustNew("caller")
	tx := makeTx(id, "counter", "meta")
	rcpt := Execute(reg, store, tx, 7, 12345)
	if len(rcpt.Events) != 1 || string(rcpt.Events[0].Payload) != "12345" || rcpt.Events[0].Height != 7 {
		t.Fatalf("events = %+v, want block time 12345 at height 7", rcpt.Events)
	}
}

func TestStubCallerIsVerifiedSender(t *testing.T) {
	reg := NewRegistry(counter{})
	store := statedb.NewStore()
	id := identity.MustNew("caller")
	rcpt := Execute(reg, store, makeTx(id, "counter", "whoami"), 1, 0)
	if got := string(rcpt.Writes["counter/caller"]); got != id.Address().String() {
		t.Fatalf("caller = %s", got)
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := NewRegistry(counter{})
	if _, ok := reg.Get("counter"); !ok {
		t.Fatal("registered contract missing")
	}
	if _, ok := reg.Get("ghost"); ok {
		t.Fatal("phantom contract found")
	}
}

func TestExecutionDeterministic(t *testing.T) {
	// Two independent stores fed the same txs must produce identical
	// roots — the property every validating node depends on.
	id := identity.MustNew("caller")
	var txs []*chain.Tx
	for i := 0; i < 10; i++ {
		txs = append(txs, makeTx(id, "counter", "inc", []byte{byte(i % 3)}))
	}
	run := func() [32]byte {
		reg := NewRegistry(counter{})
		store := statedb.NewStore()
		for i, tx := range txs {
			rcpt := Execute(reg, store, tx, uint64(i+1), int64(i))
			if rcpt.OK {
				store.Commit(rcpt.Writes, statedb.Version{Height: uint64(i + 1)})
			}
		}
		return store.Root()
	}
	if run() != run() {
		t.Fatal("execution not deterministic")
	}
}
