// Package contract implements a deterministic smart-contract runtime in
// the style of Hyperledger Fabric chaincode: contracts are native Go
// objects invoked through a Stub that mediates all state access via a
// simulation (internal/statedb) whose write set commits only if the
// invocation succeeds. Every node re-executes every block's transactions,
// in order, through ExecuteBlock and must arrive at the same state root,
// which is what lets the network "validate it and re-run contracts"
// (Section II-A).
package contract

import (
	"errors"
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// Stub is the interface contracts use to interact with the ledger during
// an invocation. Reads see the transaction's own staged writes; the
// writes reach the state only when the invocation succeeds.
type Stub interface {
	// GetState reads a key from the (simulated) world state.
	GetState(key string) ([]byte, bool)
	// PutState stages a write.
	PutState(key string, value []byte)
	// DelState stages a deletion.
	DelState(key string)
	// Range iterates keys under prefix in sorted order.
	Range(prefix string, fn func(key string, value []byte) bool)
	// Caller is the verified sender address of the transaction.
	Caller() identity.Address
	// BlockTimeMicro is the block timestamp (µs since epoch) — the only
	// clock contracts may read, so execution stays deterministic.
	BlockTimeMicro() int64
	// EmitEvent records an event delivered to subscribed peers once the
	// block commits (the contract "notifies sharing peers", Fig. 4).
	EmitEvent(name string, payload []byte)
}

// Contract is a deterministic state machine addressed by name.
type Contract interface {
	// Name returns the contract's registry name.
	Name() string
	// Invoke executes fn with args. Returning an error aborts the
	// transaction: its writes are discarded and the failure recorded in
	// the receipt. Errors must be deterministic across nodes.
	Invoke(stub Stub, fn string, args [][]byte) ([]byte, error)
}

// Event is emitted by a contract during a committed transaction.
type Event struct {
	// Contract and Name identify the event source and type.
	Contract string `json:"contract"`
	Name     string `json:"name"`
	// Payload is contract-defined.
	Payload []byte `json:"payload"`
	// TxID, Height record where the event was committed.
	TxID   string `json:"txId"`
	Height uint64 `json:"height"`
}

// Errors returned by the runtime.
var (
	ErrUnknownContract = errors.New("contract: unknown contract")
	ErrUnknownFunction = errors.New("contract: unknown function")
)

// Registry maps contract names to implementations. All nodes of a network
// must register the same contracts (they are part of the network's
// genesis configuration, like Fabric chaincode installed on every peer).
type Registry struct {
	contracts map[string]Contract
}

// NewRegistry creates a registry with the given contracts installed.
func NewRegistry(cs ...Contract) *Registry {
	r := &Registry{contracts: make(map[string]Contract, len(cs))}
	for _, c := range cs {
		r.contracts[c.Name()] = c
	}
	return r
}

// Get returns the named contract.
func (r *Registry) Get(name string) (Contract, bool) {
	c, ok := r.contracts[name]
	return c, ok
}

// Receipt records the outcome of executing one transaction.
type Receipt struct {
	// TxID is the hex transaction ID.
	TxID string `json:"txId"`
	// OK reports whether the invocation succeeded and its writes were
	// committed.
	OK bool `json:"ok"`
	// Err is the deterministic failure description when OK is false.
	Err string `json:"err,omitempty"`
	// Result is the contract's return value when OK is true.
	Result []byte `json:"result,omitempty"`
	// Events are the events emitted by a successful invocation.
	Events []Event `json:"events,omitempty"`
	// Writes is the write set a successful invocation commits.
	Writes statedb.WriteSet `json:"-"`
}

// stub is the concrete Stub bound to one simulation.
type stub struct {
	sim    *statedb.Sim
	caller identity.Address
	txID   string
	height uint64
	tsUs   int64
	events []Event
	cname  string
}

func (s *stub) GetState(key string) ([]byte, bool) { return s.sim.Get(key) }
func (s *stub) PutState(key string, value []byte)  { s.sim.Put(key, value) }
func (s *stub) DelState(key string)                { s.sim.Del(key) }
func (s *stub) Range(prefix string, fn func(string, []byte) bool) {
	s.sim.Range(prefix, fn)
}
func (s *stub) Caller() identity.Address { return s.caller }
func (s *stub) BlockTimeMicro() int64    { return s.tsUs }
func (s *stub) EmitEvent(name string, payload []byte) {
	s.events = append(s.events, Event{
		Contract: s.cname, Name: name,
		Payload: append([]byte(nil), payload...),
		TxID:    s.txID, Height: s.height,
	})
}

// Execute runs one transaction against a fresh simulation of store. The
// caller commits the write set; Execute itself never mutates store.
func Execute(reg *Registry, store *statedb.Store, tx *chain.Tx, height uint64, blockTimeMicro int64) Receipt {
	rcpt := Receipt{TxID: tx.IDString()}
	c, ok := reg.Get(tx.Contract)
	if !ok {
		rcpt.Err = fmt.Sprintf("%v: %s", ErrUnknownContract, tx.Contract)
		return rcpt
	}
	sim := store.NewSim()
	st := &stub{
		sim:    sim,
		caller: tx.From,
		txID:   tx.IDString(),
		height: height,
		tsUs:   blockTimeMicro,
		cname:  c.Name(),
	}
	result, err := c.Invoke(st, tx.Fn, tx.Args)
	if err != nil {
		rcpt.Err = err.Error()
		return rcpt
	}
	rcpt.OK = true
	rcpt.Result = result
	rcpt.Events = st.events
	rcpt.Writes = sim.Writes()
	return rcpt
}

// ExecuteBlock runs every transaction of b against state, in place and
// in order, committing each successful transaction's writes at its
// (height, index) version, and returns the receipts by tx position. A
// failed transaction commits nothing but still has a receipt. Nodes,
// recovery and the auditor all execute blocks through it.
func ExecuteBlock(reg *Registry, state *statedb.Store, b *chain.Block) []Receipt {
	receipts := make([]Receipt, len(b.Txs))
	for i, tx := range b.Txs {
		receipts[i] = Execute(reg, state, tx, b.Header.Height, b.Header.TimestampMicro)
		if receipts[i].OK {
			state.Commit(receipts[i].Writes, statedb.Version{Height: b.Header.Height, TxIndex: i})
		}
	}
	return receipts
}

// Query runs a read-only invocation against the current state, outside
// any transaction. Writes staged by the contract are discarded.
func Query(reg *Registry, store *statedb.Store, contractName, fn string, caller identity.Address, args ...[]byte) ([]byte, error) {
	c, ok := reg.Get(contractName)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, contractName)
	}
	st := &stub{sim: store.NewSim(), caller: caller, txID: "query", cname: c.Name()}
	return c.Invoke(st, fn, args)
}
