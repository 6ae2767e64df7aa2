// Package node ties the ledger substrates together into a running
// blockchain node (the "Blockchain" component of Fig. 2): it keeps a
// mempool of signed contract transactions, produces blocks under the
// proof-of-authority engine, re-executes every committed block's
// transactions deterministically against the versioned state store, checks
// state-root agreement, and delivers contract events to subscribers (the
// notifications of Fig. 4 step 4).
package node

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/chain"
	"medshare/internal/clock"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/merkle"
	"medshare/internal/p2p"
	"medshare/internal/statedb"
	"medshare/internal/store"
)

// Config configures a Node.
type Config struct {
	// NetworkName seeds the deterministic genesis block; all nodes of one
	// network must agree on it.
	NetworkName string
	// Identity signs produced blocks (and is the default caller for
	// locally built transactions).
	Identity *identity.Identity
	// Engine is the consensus engine: consensus.NewPoA over the network's
	// authority set, strict in deployment.
	Engine consensus.Engine
	// Registry holds the installed contracts; identical on every node.
	Registry *contract.Registry
	// BlockInterval is the idle retry: how often the producer tries
	// again when nothing has kicked it. Production itself is demand
	// driven (see Start).
	BlockInterval time.Duration
	// Deprecated: ignored. Production has one rule (see Start); the
	// field is kept until the benchmark's deployment stops setting it.
	GroupCommitWindow time.Duration
	// Clock abstracts time; nil means the wall clock.
	Clock clock.Clock
	// Transport connects the node to its network for gossip; nil runs the
	// node standalone.
	Transport p2p.Transport
	// Store, when non-nil, makes the node durable: New recovers the block
	// tree and world state from it (verifying every recovered root), every
	// subsequently accepted block is appended to its log, and Stop writes
	// a clean-shutdown state checkpoint so the next start replays nothing.
	Store *store.Store
}

// Node is a single blockchain participant.
type Node struct {
	cfg   Config
	store *chain.Store

	// commitMu serializes block admission. A block is executed once on a
	// clone of the published state and, its declared root verified there,
	// published under this lock in one step: head and state, receipts,
	// waiters, events.
	commitMu sync.Mutex
	// head is the published main-chain head with its post-state, one
	// value, so a reader (a producer, a checkpoint, a light head) can
	// never pair a block with another block's state. The state is never
	// mutated after publication.
	head atomic.Pointer[headState]
	// orphans parks received blocks by the hash of the parent they wait
	// for (see ReceiveBlock); guarded by commitMu.
	orphans map[merkle.Hash]*chain.Block

	mu      sync.Mutex
	mempool *mempool
	// receipts keeps each committed transaction's verdict: TxID, OK and
	// Err. publish drops a receipt's events and writes once it has
	// delivered the one and committed the other.
	receipts map[string]contract.Receipt
	// txWaiters get closed/sent when a given tx commits.
	txWaiters map[string][]chan contract.Receipt
	// committedTxs prevents replay: a tx ID may commit only once.
	committedTxs map[string]bool
	nonce        uint64
	// applied is closed and replaced each time a main-chain block is
	// published (see BlockApplied).
	applied chan struct{}
	// poisoned, once set, stops production and block admission (see
	// Poisoned).
	poisoned error

	events *eventBus

	// sigChecks counts transaction signature verifications (TxSigChecks).
	sigChecks atomic.Uint64

	// kickCh (capacity 1) wakes the producer when transactions arrive
	// or a published block leaves some pooled; a pending token covers
	// any number of them.
	kickCh chan struct{}

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// New creates a node at genesis.
func New(cfg Config) (*Node, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("node: consensus engine is required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("node: contract registry is required")
	}
	if cfg.Identity == nil {
		return nil, fmt.Errorf("node: identity is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 50 * time.Millisecond
	}
	n := &Node{
		cfg:          cfg,
		store:        chain.NewStore(chain.Genesis(cfg.NetworkName)),
		orphans:      make(map[merkle.Hash]*chain.Block),
		mempool:      newMempool(),
		receipts:     make(map[string]contract.Receipt),
		txWaiters:    make(map[string][]chan contract.Receipt),
		committedTxs: make(map[string]bool),
		applied:      make(chan struct{}),
		events:       newEventBus(),
		kickCh:       make(chan struct{}, 1),
		stopped:      make(chan struct{}),
	}
	n.head.Store(&headState{block: n.store.Head(), state: statedb.NewStore()})
	if cfg.Store != nil {
		if err := n.recoverFromStore(cfg.Store); err != nil {
			return nil, fmt.Errorf("node: recovery: %w", err)
		}
	}
	if cfg.Transport != nil {
		cfg.Transport.Handle(n.handleGossip)
	}
	return n, nil
}

// Address returns the node identity's address.
func (n *Node) Address() identity.Address { return n.cfg.Identity.Address() }

// Store exposes the block store (read-only use expected).
func (n *Node) Store() *chain.Store { return n.store }

// headState is a main-chain block and its post-state.
type headState struct {
	block *chain.Block
	state *statedb.Store
}

// State returns the published world state: an immutable snapshot of the
// head block's post-state (read-only use expected). Later blocks publish
// new snapshots; callers wanting fresh state call State again.
func (n *Node) State() *statedb.Store { return n.head.Load().state }

// Head returns the published head block and its post-state, one
// consistent pair: state.Root() is the block's declared StateRoot.
func (n *Node) Head() (*chain.Block, *statedb.Store) {
	h := n.head.Load()
	return h.block, h.state
}

// BlockApplied returns a channel that is closed when the next main-chain
// block is published, after the block's events have been delivered to
// every subscription. Waiters take the channel before checking their
// condition, so a block landing in between still wakes them.
func (n *Node) BlockApplied() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// Poisoned reports the sticky error of a node whose state could not
// follow its chain: a fork-choice switch onto a branch whose declared
// state roots do not reproduce. Such a node has stopped producing and
// admitting blocks and must be restarted.
func (n *Node) Poisoned() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.poisoned
}

// poison records the first unrecoverable error and logs it once.
func (n *Node) poison(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.poisoned == nil {
		n.poisoned = err
		log.Printf("node %s: poisoned, production stopped: %v", n.Address().Short(), err)
	}
}

// Registry returns the installed contract registry.
func (n *Node) Registry() *contract.Registry { return n.cfg.Registry }

// NextNonce returns a fresh nonce for transactions built by this node.
func (n *Node) NextNonce() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nonce++
	return n.nonce
}

// Start launches the block-production loop. It returns immediately; call
// Stop (or cancel ctx) to halt.
//
// Production has one rule, group commit without a timer: a kick (a newly
// admitted local or gossiped transaction, or a published block that left
// transactions pooled) runs TryProduce at once, and whatever arrives while
// that block is sealed, committed and persisted sets the kick again and
// rides the next block. BlockInterval only retries an idle producer.
func (n *Node) Start(ctx context.Context) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.produceLoop(ctx)
	}()
}

// Stop halts block production and waits for the loop to exit. Durable
// nodes then write a state checkpoint sealed with a clean-shutdown
// marker, so the next Open replays zero WAL bytes and imports the
// state instead of re-executing the chain.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopped) })
	n.wg.Wait()
	if n.cfg.Store != nil {
		// Best-effort: a poisoned store already reported its write error.
		_ = n.WriteCheckpoint(true)
	}
}

// WriteCheckpoint persists the current head and full world state to the
// durable store; clean additionally seals it as a graceful shutdown.
func (n *Node) WriteCheckpoint(clean bool) error {
	if n.cfg.Store == nil {
		return nil
	}
	head, state := n.Head()
	return n.cfg.Store.Commit(func(b *store.Batch) error {
		if err := b.PutState(store.StateCheckpoint{
			Height:  head.Header.Height,
			Head:    head.Hash(),
			Root:    state.Root(),
			Entries: state.Export(),
		}); err != nil {
			return err
		}
		if clean {
			b.MarkClean()
		}
		return nil
	})
}

func (n *Node) produceLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.stopped:
			return
		case <-n.cfg.Clock.After(n.cfg.BlockInterval):
		case <-n.kickCh:
		}
		// Production errors (not our turn, nothing pooled, a head that
		// moved while sealing) are not fatal; the next kick or the idle
		// retry tries again.
		_ = n.TryProduce(ctx)
	}
}

// kick nudges the producer. Non-blocking: a pending kick already covers
// this arrival.
func (n *Node) kick() {
	select {
	case n.kickCh <- struct{}{}:
	default:
	}
}

var (
	errNotOurTurn   = fmt.Errorf("node: not our turn to propose")
	errNothingToDo  = fmt.Errorf("node: no transactions to include")
	errStaleProduce = fmt.Errorf("node: head moved during production")
)

// TryProduce attempts to produce, execute, and broadcast one block on top
// of the current head. It is also the hook tests and benchmarks use to
// drive the chain without a timer.
func (n *Node) TryProduce(ctx context.Context) error {
	if err := n.Poisoned(); err != nil {
		return err
	}
	head, base := n.Head()
	height := head.Header.Height + 1
	if !n.cfg.Engine.MayPropose(n.Address(), height) {
		return errNotOurTurn
	}
	groups := n.pickTxs()
	if len(groups) == 0 {
		return errNothingToDo
	}
	var txs []*chain.Tx
	for _, group := range groups {
		txs = append(txs, group...)
	}

	b := &chain.Block{
		Header: chain.Header{
			Height:         height,
			PrevHash:       head.Hash(),
			TimestampMicro: n.cfg.Clock.Now().UnixMicro(),
			Proposer:       n.Address(),
		},
		Txs: txs,
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	if err := n.cfg.Engine.Prepare(&b.Header); err != nil {
		n.requeueTxs(groups)
		return err
	}

	// The block's one execution: its post-state supplies the header's
	// state root now and becomes the published state at commit.
	staged := base.Clone()
	receipts := contract.ExecuteBlock(n.cfg.Registry, staged, b)
	b.Header.StateRoot = staged.Root()

	if err := n.cfg.Engine.Seal(ctx, b, n.cfg.Identity); err != nil {
		n.requeueTxs(groups)
		return err
	}
	if n.store.Head() != head {
		// Another block landed while sealing; drop ours, keep its
		// transactions for the next round.
		n.requeueTxs(groups)
		return errStaleProduce
	}
	// Broadcast before the local persist, so followers execute and fsync
	// while we do, and before taking the commit lock, which is never held
	// across the network. From here the block is public and is committed
	// whatever happens to the head meanwhile (a competing block makes it
	// a fork-choice sibling); a successor gossiped straight back may find
	// it still pending and is parked until it lands.
	n.gossipBlock(b)
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	if err := n.commitBlock(b, staged, receipts); err != nil {
		return err
	}
	n.adoptOrphans(b)
	return nil
}

// TxSigChecks reports how many transaction signatures this node has
// verified since it started: one per signature group (a transaction
// signed alone, or a whole batch signed once) at admission (SubmitTx,
// SubmitTxBatch, gossip), plus one per group of a received block that
// was never admitted here. A group is checked once per node; recovery's
// re-verification of the persisted chain is not counted.
func (n *Node) TxSigChecks() uint64 { return n.sigChecks.Load() }

// SubmitTx validates a transaction signed alone, admits it to the
// mempool, and gossips it to the network. A batch member is refused: it
// verifies only with its batch (SubmitTxBatch).
func (n *Node) SubmitTx(tx *chain.Tx) error {
	n.sigChecks.Add(1)
	if err := tx.Verify(); err != nil {
		return err
	}
	id := tx.IDString()
	n.mu.Lock()
	if n.committedTxs[id] {
		n.mu.Unlock()
		return fmt.Errorf("node: tx %s already committed", id[:8])
	}
	added := n.mempool.add([]*chain.Tx{tx})
	n.mu.Unlock()
	if added {
		n.gossipTx(tx)
		n.kick()
	}
	return nil
}

// SubmitTxBatch validates and admits a group of transactions in one
// mempool pass, gossips them as a single batch message, and kicks the
// producer once — the group-commit entry point: callers staging many
// independent share updates hand them over together so one block (and
// one gossip broadcast) carries them all. The transactions are checked
// one signature group at a time (chain.VerifyGroups), so a batch signed
// with chain.SignBatch costs one check. Any group failing verification
// fails the whole submission before admission; already-committed or
// duplicate groups are skipped silently (the per-tx receipt is the
// arbiter callers wait on).
func (n *Node) SubmitTxBatch(txs []*chain.Tx) error {
	var groups [][]*chain.Tx
	err := chain.VerifyGroups(txs, nil, func(group []*chain.Tx, _ error) {
		n.sigChecks.Add(1)
		groups = append(groups, group)
	})
	if err != nil {
		return err
	}
	if fresh := n.admit(groups); len(fresh) > 0 {
		n.gossipTxBatch(fresh)
	}
	return nil
}

// admit pools the (already verified) groups none of whose members is
// committed and that are not pooled, kicks the producer if any were new,
// and returns the new transactions. A group with a committed member can
// never be whole in a block, so it is not pooled.
func (n *Node) admit(groups [][]*chain.Tx) []*chain.Tx {
	var fresh []*chain.Tx
	n.mu.Lock()
	for _, group := range groups {
		if all(group, n.uncommitted) && n.mempool.add(group) {
			fresh = append(fresh, group...)
		}
	}
	n.mu.Unlock()
	if len(fresh) > 0 {
		n.kick()
	}
	return fresh
}

// uncommitted reports whether tx has not committed here. The caller
// holds n.mu.
func (n *Node) uncommitted(tx *chain.Tx) bool { return !n.committedTxs[tx.IDString()] }

// BuildTx constructs and signs a transaction from this node's identity.
func (n *Node) BuildTx(contractName, fn string, shareID string, args ...[]byte) *chain.Tx {
	tx := &chain.Tx{
		Contract:       contractName,
		Fn:             fn,
		Args:           args,
		ShareID:        shareID,
		Nonce:          n.NextNonce(),
		TimestampMicro: n.cfg.Clock.Now().UnixMicro(),
	}
	tx.Sign(n.cfg.Identity)
	return tx
}

// WaitTx blocks until the transaction commits (in a main-chain block) and
// returns its verdict: a receipt without events or writes.
func (n *Node) WaitTx(ctx context.Context, txID string) (contract.Receipt, error) {
	n.mu.Lock()
	if r, ok := n.receipts[txID]; ok {
		n.mu.Unlock()
		return r, nil
	}
	ch := make(chan contract.Receipt, 1)
	n.txWaiters[txID] = append(n.txWaiters[txID], ch)
	n.mu.Unlock()
	select {
	case <-ctx.Done():
		return contract.Receipt{}, ctx.Err()
	case r := <-ch:
		return r, nil
	}
}

// Receipt returns the verdict of a committed transaction: a receipt
// without events or writes.
func (n *Node) Receipt(txID string) (contract.Receipt, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.receipts[txID]
	return r, ok
}

// Subscribe registers an event listener; cancel releases it. Slow
// subscribers never block the node: the channel is buffered and overflow
// events are dropped for that subscriber.
func (n *Node) Subscribe(buffer int) (<-chan contract.Event, func()) {
	return n.events.subscribe(buffer)
}

// PendingTxs reports the current mempool size.
func (n *Node) PendingTxs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mempool.len()
}

// requeueTxs returns the groups of an abandoned production attempt to
// the front of the pool, except those a block committed meanwhile.
func (n *Node) requeueTxs(groups [][]*chain.Tx) {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := make([][]*chain.Tx, 0, len(groups))
	for _, group := range groups {
		if all(group, n.uncommitted) {
			live = append(live, group)
		}
	}
	n.mempool.requeue(live)
}

// maxTxPerBlock bounds block size. A block holds whole batches, so it is
// the largest batch.
const maxTxPerBlock = chain.MaxBatch

// pickTxs selects signature groups of up to maxTxPerBlock transactions
// in all, enforcing the paper's rule of at most one transaction per
// share per block.
func (n *Node) pickTxs() [][]*chain.Tx {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mempool.pick(maxTxPerBlock, n.uncommitted)
}
