// Package core implements the paper's primary contribution: the
// data-sharing peer that splits its full medical records into fine-grained
// views shared pairwise with other stakeholders, keeps every replica
// consistent through bidirectional transformations, and gates every update
// through the sharereg smart contract on the blockchain.
//
// One Peer corresponds to one stakeholder of Fig. 2 (Patient, Doctor,
// Researcher, ...). It owns:
//
//   - a local reldb.Database with full source tables and materialized
//     shared views (medical data never leaves the peers);
//   - a set of Share bindings, each pairing a local source table with a
//     bx lens that derives the shared view;
//   - a connection to a blockchain node for permissions, ordering, and
//     notifications;
//   - a p2p data channel over which counterparties fetch view payloads
//     directly (the chain carries only metadata and hashes).
package core

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/clock"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// Errors returned by the sharing layer.
var (
	ErrUnknownShare  = errors.New("core: unknown share")
	ErrShareBound    = errors.New("core: share already bound")
	ErrNoChanges     = errors.New("core: view unchanged, nothing to propose")
	ErrPayloadHash   = errors.New("core: fetched payload does not match on-chain hash")
	ErrNotAuthorized = errors.New("core: data fetch from non-peer")
	ErrStaleData     = errors.New("core: counterparty does not hold requested version")
	ErrTxFailed      = errors.New("core: transaction rejected by contract")
)

// Fixed operating limits of a peer.
const (
	// fanoutWorkers bounds how many shares the peer processes
	// concurrently on its fan-out paths (receive rounds, Resync) and how
	// many requests one structural-sync wave keeps in flight. Share
	// operations mostly wait on chain commits, so this is an
	// in-flight-proposals bound rather than a CPU bound.
	fanoutWorkers = 8
	// historyCap bounds the local activity log (History) to its most
	// recent entries; the authoritative history lives on-chain.
	historyCap = 4096
	// txTimeout bounds each wait for a transaction commit.
	txTimeout = 30 * time.Second
)

// Config configures a Peer.
type Config struct {
	// Identity is the peer's signing identity; its address is the peer's
	// principal on-chain.
	Identity *identity.Identity
	// DB is the peer's local database (sources + materialized views).
	DB *reldb.Database
	// Node is the blockchain node the peer submits transactions to and
	// receives events from. Several peers may share one node, or each
	// peer may run its own (Fig. 2 draws one per stakeholder).
	Node *node.Node
	// Transport is the peer's endpoint on the data channel. Nil disables
	// remote fetch (single-process tests wire peers to one MemNetwork).
	Transport p2p.Transport
	// Directory maps peer addresses to transport endpoint names.
	Directory *Directory
	// Clock abstracts time; nil means wall clock.
	Clock clock.Clock
	// RPCTimeout bounds each individual data-channel request attempt
	// (each data.sync request). 0 means 5s.
	RPCTimeout time.Duration
	// Retry tunes the data-channel backoff schedule; the zero value
	// selects the documented defaults (4 attempts, 10ms base, 2s cap).
	Retry Backoff
	// Health tunes the per-endpoint failure tracking that short-circuits
	// requests to repeatedly failing peers; the zero value selects the
	// documented defaults (3 failures, 1s quarantine doubling to 10s).
	Health HealthPolicy
	// ResyncInterval, when positive, runs the background anti-entropy
	// repair loop: Resync periodically reconciles every share against
	// on-chain state — missed pending updates, missed finals, and root
	// mismatches against the on-chain payload hash all self-heal without
	// manual intervention. Zero disables the loop; Resync can still be
	// called manually.
	ResyncInterval time.Duration
	// Logf, when set, receives progress lines (examples wire it to
	// fmt.Printf; tests leave it nil).
	Logf func(format string, args ...any)
	// Store, when non-nil, makes share replicas durable: every applied
	// update commits the view (O(changed nodes), content-addressed) to
	// the log, and AttachShare / RegisterShare restore verified replicas
	// from it on restart instead of re-deriving them. See persist.go.
	Store *store.Store
}

// Peer is one stakeholder in the sharing network.
type Peer struct {
	cfg Config

	mu     sync.Mutex
	shares map[string]*Share

	cancelEvents func()
	wg           sync.WaitGroup
	stopOnce     sync.Once
	stopped      chan struct{}

	// Incoming-event dispatch state (see events.go): the current
	// generation's event subscription (under mu) and the update requests
	// inside receive rounds that have not finished.
	inbox     <-chan contract.Event
	roundReqs atomic.Int64

	// history holds the last historyCap locally observed share events.
	history []HistoryEntry

	// wakeCh wakes the reconciler (see events.go); buffered, size 1.
	wakeCh chan struct{}

	// health tracks per-endpoint consecutive request failures for the
	// quarantine short-circuit (see retry.go).
	healthMu sync.Mutex
	health   map[string]*endpointHealth

	// stats are the resilience counters behind Stats().
	stats statsCounters
}

// Share is one peer's binding of a shared table: the local source it is
// derived from, the lens, and the current materialized view replica.
type Share struct {
	// ID is the on-chain share identifier (e.g. "D13&D31").
	ID string
	// SourceTable names the local source table the lens reads.
	SourceTable string
	// Lens derives the local view of the shared table from SourceTable.
	Lens bx.Lens
	// ViewName is the local name for the materialized view (the paper
	// gives the two replicas different names, D13 vs D31).
	ViewName string

	// prioSeed is the share's storage-priority secret from the on-chain
	// metadata (empty on pre-seed shares): every replica of the view is
	// stored under treap priorities derived from it by HMAC-SHA-256, so
	// the replicas — which must agree on the Merkle row root — converge
	// to identical tree shapes that nobody without the secret can grind
	// row keys against. Immutable after binding.
	prioSeed []byte

	// opMu serializes share-level operations (proposals, entry-level
	// edits, receive rounds, Resync, unbinding) against each other.
	// Without it, a peer's optimistic replica refresh during its own
	// proposal can race the arrival of a competing update that won the
	// same sequence number, making the peer skip an update it must
	// acknowledge. Single-share paths never hold one share's opMu while
	// taking another's; the only multi-share holders are group commits
	// (ProposeUpdates, the reconciler) and receive rounds,
	// which all acquire in sorted share-ID order, so none can deadlock.
	opMu sync.Mutex

	// stMu guards the mutable share state below. Per-share — not
	// peer-wide — so a fetch handler serving one share never contends
	// with operations on the peer's hundreds of others.
	stMu sync.Mutex

	// AppliedSeq is the last fully applied update sequence number.
	AppliedSeq uint64

	// backup holds the pre-proposal view replica while our own update is
	// pending, so a rejection by a counterparty rolls the share back.
	// The local source deliberately keeps the user's edit: an
	// untranslatable edit is surfaced (history entry "rolled-back") for
	// the user to resolve, never silently destroyed.
	backup *shareBackup

	// prev retains the previous view version so the data channel can
	// answer a peer that already holds it with a row-level changeset
	// instead of a tree walk (see serveSync).
	prev *shareBackup

	// diverged marks that the stored view replica no longer equals
	// Lens.Get(source) — the deliberate state after a rejection or denial
	// rollback, which restores the view but keeps the user's edit in the
	// source. While set, puts take bx.Put, which diffs the new view
	// against the source's own view and so re-embeds the whole view and
	// realigns the pair, instead of the delta put of a changeset from the
	// replica (which would silently preserve the divergence).
	diverged bool

	// dirty, when set, is a source version the replica may not show: one
	// a write through another share produced, or the one a restored
	// replica was bound over. The reconciler derives from it, not from the
	// current source, leaving later UpdateSource edits to the user. held
	// marks an edit a counterparty rejected or the contract denied: it
	// stays in the source, unproposed until a user's proposal commits.
	dirty *reldb.Table
	held  bool

	// derivedSrc and derivedView are the source snapshot and the replica
	// version that equals Lens.Get of it — where the next proposal's
	// incremental get starts (stageProposal). Nothing clears the pair: it
	// is trusted only while derivedView is still the very version stored
	// as the replica, so a rollback, resync, repair or restore that swaps
	// the replica in retires it, and so does a restart (nil).
	derivedSrc, derivedView *reldb.Table

	// proofs memoizes membership proofs for the serving edge's
	// proof-carrying reads, invalidated wholesale when the applied
	// sequence (and hence the row root) advances. See prove.go.
	proofs proofCache
}

// seedView returns the table reseeded under the share's priority secret.
// O(1) when the table already carries it — the steady state: clones and
// delta-applied descendants of a seeded replica (incremental gets, delta
// answers, a walk's rebuild over the replica) inherit the seed through
// the shared storage, so only freshly materialized views (full lens get)
// pay the O(n) rebuild, which they precede with O(n) work anyway.
func (s *Share) seedView(t *reldb.Table) *reldb.Table {
	if len(s.prioSeed) == 0 {
		return t
	}
	return t.Reseeded(s.prioSeed)
}

// appliedSeq reads AppliedSeq under the share's state lock.
func (s *Share) appliedSeq() uint64 {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	return s.AppliedSeq
}

// shareBackup is a (sequence, view snapshot) pair.
type shareBackup struct {
	seq  uint64
	view *reldb.Table
}

// HistoryEntry records one observed share event.
type HistoryEntry struct {
	Time    time.Time
	ShareID string
	Seq     uint64
	Kind    string
	Cols    []string
	From    identity.Address
	Note    string
}

// NewPeer creates a peer and registers its data-channel handler.
func NewPeer(cfg Config) (*Peer, error) {
	if cfg.Identity == nil || cfg.DB == nil || cfg.Node == nil {
		return nil, fmt.Errorf("core: identity, db and node are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	p := &Peer{
		cfg:     cfg,
		shares:  make(map[string]*Share),
		stopped: make(chan struct{}),
		health:  make(map[string]*endpointHealth),
		wakeCh:  make(chan struct{}, 1),
	}
	if cfg.Transport != nil {
		cfg.Transport.HandleRequest(p.serveSync)
		if cfg.Directory != nil {
			cfg.Directory.Set(cfg.Identity.Address(), cfg.Transport.Name())
		}
	}
	return p, nil
}

// Address returns the peer's on-chain address.
func (p *Peer) Address() identity.Address { return p.cfg.Identity.Address() }

// Name returns the identity's human-readable name.
func (p *Peer) Name() string { return p.cfg.Identity.Name }

// DB returns the peer's local database.
func (p *Peer) DB() *reldb.Database { return p.cfg.DB }

// Start launches the event-processing loop (notifications from the smart
// contract, Fig. 4 step 4), the reconciler, and, if configured, the
// periodic resync loop.
func (p *Peer) Start() {
	events, cancel := p.cfg.Node.Subscribe(1024)
	p.cancelEvents = cancel
	p.mu.Lock()
	p.inbox = events
	p.mu.Unlock()
	p.wg.Add(2)
	go p.runEvents(events, p.stopped)
	go p.runReconciler(p.stopped)
	if p.cfg.ResyncInterval > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.stopped:
					return
				case <-p.cfg.Clock.After(p.cfg.ResyncInterval):
				}
				ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
				if err := p.Resync(ctx); err != nil {
					p.logf("periodic resync: %v", err)
				}
				cancel()
			}
		}()
	}
}

// Stop halts event processing.
func (p *Peer) Stop() {
	p.stopOnce.Do(func() { close(p.stopped) })
	if p.cancelEvents != nil {
		p.cancelEvents()
	}
	p.wg.Wait()
}

func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf("[%s] "+format, append([]any{p.Name()}, args...)...)
	}
}

// share returns the binding for id.
func (p *Peer) share(id string) (*Share, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.shares[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShare, id)
	}
	return s, nil
}

// lockShare takes the share's operation lock and returns the share if it
// is still bound: one unbound while the caller waited is unknown.
func (p *Peer) lockShare(id string) (*Share, error) {
	s, err := p.share(id)
	if err != nil {
		return nil, err
	}
	s.opMu.Lock()
	if cur, _ := p.share(id); cur != s {
		s.opMu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownShare, id)
	}
	return s, nil
}

// Shares lists the IDs of all bound shares.
func (p *Peer) Shares() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.shares))
	for id := range p.shares {
		out = append(out, id)
	}
	return out
}

// ShareInfo is a copyable snapshot of a share binding's state.
type ShareInfo struct {
	ID          string
	SourceTable string
	ViewName    string
	AppliedSeq  uint64
}

// ShareInfo returns a snapshot of the local share binding state.
func (p *Peer) ShareInfo(id string) (ShareInfo, error) {
	s, err := p.share(id)
	if err != nil {
		return ShareInfo{}, err
	}
	s.stMu.Lock()
	defer s.stMu.Unlock()
	return ShareInfo{
		ID:          s.ID,
		SourceTable: s.SourceTable,
		ViewName:    s.ViewName,
		AppliedSeq:  s.AppliedSeq,
	}, nil
}

// Meta fetches the current on-chain metadata for a share.
func (p *Peer) Meta(id string) (*sharereg.Meta, error) {
	raw, err := p.cfg.Node.Query(sharereg.ContractName, sharereg.FnGet, []byte(id))
	if err != nil {
		return nil, err
	}
	return sharereg.DecodeMeta(raw)
}

// History returns the locally observed share activity log, its last
// historyCap entries, oldest first.
func (p *Peer) History() []HistoryEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]HistoryEntry(nil), p.history...)
}

func (p *Peer) record(e HistoryEntry) {
	e.Time = p.cfg.Clock.Now()
	p.mu.Lock()
	// Bounded: a full append moves just the live entries to a new array.
	if p.history = append(p.history, e); len(p.history) > historyCap {
		p.history = p.history[1:]
	}
	p.mu.Unlock()
}

// submitAndWait submits a transaction and waits for its committed receipt,
// translating contract failures into errors.
func (p *Peer) submitAndWait(ctx context.Context, tx *chain.Tx) (contract.Receipt, error) {
	if err := p.cfg.Node.SubmitTx(tx); err != nil {
		return contract.Receipt{}, err
	}
	return p.waitCommitted(ctx, tx)
}

// waitCommitted waits for a submitted transaction's committed receipt,
// translating a contract failure into an error.
func (p *Peer) waitCommitted(ctx context.Context, tx *chain.Tx) (contract.Receipt, error) {
	ctx, cancel := context.WithTimeout(ctx, txTimeout)
	defer cancel()
	rcpt, err := p.cfg.Node.WaitTx(ctx, tx.IDString())
	if err != nil {
		return contract.Receipt{}, err
	}
	if !rcpt.OK {
		return rcpt, fmt.Errorf("%w: %s", ErrTxFailed, rcpt.Err)
	}
	return rcpt, nil
}

// submitAndWaitMany submits a batch of transactions in one group commit
// and waits for each to land, returning a per-transaction verdict (nil
// on success). One txTimeout covers the whole batch: the transactions
// share a block, so their commits arrive together. A batch-level
// submission failure fails every verdict. submitted, when set, runs once
// the batch is in the mempool, before the wait.
func (p *Peer) submitAndWaitMany(ctx context.Context, txs []*chain.Tx, submitted func()) []error {
	verdicts := make([]error, len(txs))
	if err := p.cfg.Node.SubmitTxBatch(txs); err != nil {
		for i := range verdicts {
			verdicts[i] = err
		}
		return verdicts
	}
	p.stats.batchCommits.Add(1)
	p.stats.batchTxs.Add(uint64(len(txs)))
	if submitted != nil {
		submitted()
	}
	ctx, cancel := context.WithTimeout(ctx, txTimeout)
	defer cancel()
	for i, tx := range txs {
		rcpt, err := p.cfg.Node.WaitTx(ctx, tx.IDString())
		switch {
		case err != nil:
			verdicts[i] = err
		case !rcpt.OK:
			verdicts[i] = fmt.Errorf("%w: %s", ErrTxFailed, rcpt.Err)
		}
	}
	return verdicts
}

// buildTx signs a sharereg invocation as this peer (not as the node
// identity — several peers may share a node).
func (p *Peer) buildTx(fn, shareID string, arg any) (*chain.Tx, error) {
	raw, err := json.Marshal(arg)
	if err != nil {
		return nil, fmt.Errorf("core: encoding %s args: %w", fn, err)
	}
	tx := &chain.Tx{
		Contract:       sharereg.ContractName,
		Fn:             fn,
		Args:           [][]byte{raw},
		ShareID:        shareID,
		Nonce:          p.cfg.Node.NextNonce(),
		TimestampMicro: p.cfg.Clock.Now().UnixMicro(),
	}
	tx.Sign(p.cfg.Identity)
	return tx, nil
}

// hashHex returns the hex canonical hash of a table.
func hashHex(t *reldb.Table) string {
	h := t.Hash()
	return hex.EncodeToString(h[:])
}

// snapshotTable returns an independent snapshot of a local table. The
// database read path is lock-free (one atomic load plus an O(1)
// copy-on-write clone), so the peer's event goroutine, fetch handlers,
// and user goroutines all snapshot without contending; in-place mutation
// stays confined to the database's per-table commit path.
func (p *Peer) snapshotTable(name string) (*reldb.Table, error) {
	return p.cfg.DB.Table(name)
}
