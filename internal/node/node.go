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
	// BlockInterval is the target time between produced blocks.
	BlockInterval time.Duration
	// GroupCommitWindow, when non-zero, makes block production
	// demand-driven: a submitted transaction kicks the producer, which
	// waits this long for more arrivals to accumulate and then produces
	// one block for the whole batch — amortizing consensus, sealing, and
	// state-root work across every transaction that arrived in the
	// window, with BlockInterval demoted to the idle fallback. Negative
	// produces immediately on the first kick (minimum latency, batching
	// only what arrived in the same instant). Zero keeps the pure
	// interval-paced producer.
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
	// published under this lock in one step: head, state pointer,
	// receipts, waiters, events. A producer snapshots head and state
	// under it, so it can never pair a head with another block's state.
	commitMu sync.Mutex
	// state is the published world state: the post-state of the head
	// block, never mutated after publication.
	state atomic.Pointer[statedb.Store]
	// orphans parks received blocks by the hash of the parent they wait
	// for (see ReceiveBlock); guarded by commitMu.
	orphans map[merkle.Hash]*chain.Block

	mu       sync.Mutex
	mempool  *mempool
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
	// and GroupCommitWindow is enabled; a pending token covers any
	// number of submissions.
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
	n.state.Store(statedb.NewStore())
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

// State returns the published world state: an immutable snapshot of the
// head block's post-state (read-only use expected). Later blocks publish
// new snapshots; callers wanting fresh state call State again.
func (n *Node) State() *statedb.Store { return n.state.Load() }

// snapshot returns the head block and its post-state as one consistent
// pair.
func (n *Node) snapshot() (*chain.Block, *statedb.Store) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	return n.store.Head(), n.state.Load()
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
	head, state := n.snapshot()
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
			// Demand-driven production: hold the accumulation window so
			// submissions arriving on its heels share the block, then
			// produce without waiting out the interval.
			if w := n.cfg.GroupCommitWindow; w > 0 {
				select {
				case <-ctx.Done():
					return
				case <-n.stopped:
					return
				case <-n.cfg.Clock.After(w):
				}
			}
		}
		if err := n.TryProduce(ctx); err != nil &&
			err != errNotOurTurn && err != errNothingToDo {
			// Production errors are not fatal; the next round retries.
			continue
		}
	}
}

// kick nudges the producer after a submission when demand-driven
// production is enabled. Non-blocking: a pending kick already covers
// this arrival.
func (n *Node) kick() {
	if n.cfg.GroupCommitWindow == 0 {
		return
	}
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
	head, base := n.snapshot()
	height := head.Header.Height + 1
	if !n.cfg.Engine.MayPropose(n.Address(), height) {
		return errNotOurTurn
	}
	txs := n.pickTxs()
	if len(txs) == 0 {
		return errNothingToDo
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
		n.requeueTxs(txs)
		return err
	}

	// The block's one execution: its post-state supplies the header's
	// state root now and becomes the published state at commit.
	staged := base.Clone()
	receipts := n.executeOn(staged, b)
	b.Header.StateRoot = staged.Root()

	if err := n.cfg.Engine.Seal(ctx, b, n.cfg.Identity); err != nil {
		n.requeueTxs(txs)
		return err
	}
	if n.store.Head() != head {
		// Another block landed while sealing; drop ours, keep its
		// transactions for the next round.
		n.requeueTxs(txs)
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
// verified since it started: one per transaction at admission (SubmitTx,
// SubmitTxBatch, gossip), plus one per transaction of a received block
// that was never admitted here. A transaction is checked once per node;
// recovery's re-verification of the persisted chain is not counted.
func (n *Node) TxSigChecks() uint64 { return n.sigChecks.Load() }

// verifyTx checks a transaction's signature, counting the check.
func (n *Node) verifyTx(tx *chain.Tx) error {
	n.sigChecks.Add(1)
	return tx.Verify()
}

// SubmitTx validates a transaction, admits it to the mempool, and gossips
// it to the network.
func (n *Node) SubmitTx(tx *chain.Tx) error {
	if err := n.verifyTx(tx); err != nil {
		return err
	}
	id := tx.IDString()
	n.mu.Lock()
	if n.committedTxs[id] {
		n.mu.Unlock()
		return fmt.Errorf("node: tx %s already committed", id[:8])
	}
	added := n.mempool.add(tx)
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
// one gossip broadcast) carries them all. Any transaction failing
// signature verification fails the whole batch before admission;
// already-committed or duplicate transactions are skipped silently (the
// per-tx receipt is the arbiter callers wait on).
func (n *Node) SubmitTxBatch(txs []*chain.Tx) error {
	for _, tx := range txs {
		if err := n.verifyTx(tx); err != nil {
			return err
		}
	}
	if fresh := n.admit(txs); len(fresh) > 0 {
		n.gossipTxBatch(fresh)
	}
	return nil
}

// admit pools the (already verified) transactions that are neither
// committed nor pooled, kicks the producer if any were new, and returns
// the new ones.
func (n *Node) admit(txs []*chain.Tx) []*chain.Tx {
	fresh := make([]*chain.Tx, 0, len(txs))
	n.mu.Lock()
	for _, tx := range txs {
		if !n.committedTxs[tx.IDString()] && n.mempool.add(tx) {
			fresh = append(fresh, tx)
		}
	}
	n.mu.Unlock()
	if len(fresh) > 0 {
		n.kick()
	}
	return fresh
}

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
// returns its receipt.
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

// Receipt returns the receipt of a committed transaction.
func (n *Node) Receipt(txID string) (contract.Receipt, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.receipts[txID]
	return r, ok
}

// Query runs a read-only contract invocation against the current state.
func (n *Node) Query(contractName, fn string, args ...[]byte) ([]byte, error) {
	return contract.Query(n.cfg.Registry, n.State(), contractName, fn, n.Address(), args...)
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

// requeueTxs returns the transactions of an abandoned production attempt
// to the front of the pool, except those a block committed meanwhile.
func (n *Node) requeueTxs(txs []*chain.Tx) {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := make([]*chain.Tx, 0, len(txs))
	for _, tx := range txs {
		if !n.committedTxs[tx.IDString()] {
			live = append(live, tx)
		}
	}
	n.mempool.requeue(live)
}

// maxTxPerBlock bounds block size.
const maxTxPerBlock = 256

// pickTxs selects up to maxTxPerBlock transactions, enforcing the paper's
// rule of at most one transaction per share per block.
func (n *Node) pickTxs() []*chain.Tx {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mempool.pick(maxTxPerBlock, func(tx *chain.Tx) bool {
		return !n.committedTxs[tx.IDString()]
	})
}
