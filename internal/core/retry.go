package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/p2p"
)

// Data-channel resilience: every fetch/sync RPC runs under a per-attempt
// context deadline and a bounded exponential backoff with jitter, and
// per-endpoint health tracking short-circuits requests to peers that
// have failed repeatedly — a partitioned or crashed counterparty costs
// one fast error instead of a full retry ladder, until its quarantine
// expires and a probe is allowed through. The chain path (SubmitTx,
// WaitTx, Query) is a direct in-process call to the peer's own node and
// needs none of this.

// ErrPeerDown marks a request short-circuited because the target
// endpoint is quarantined after repeated failures.
var ErrPeerDown = errors.New("core: peer endpoint quarantined")

// Backoff is a bounded exponential backoff schedule with jitter: each
// delay is backoffFactor times the last, and backoffJitter of it is
// randomized away. The zero value selects the defaults noted per field.
type Backoff struct {
	// Base is the first retry delay (0 → 10ms).
	Base time.Duration
	// Max caps each delay (0 → 2s).
	Max time.Duration
	// Attempts is the total number of tries including the first (0 → 4).
	Attempts int
}

const (
	// backoffFactor is the per-retry growth multiplier.
	backoffFactor = 2
	// backoffJitter is the fraction of each delay randomized away: the
	// actual wait is uniform in [d·(1−backoffJitter), d].
	backoffJitter = 0.5
)

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	return b
}

// delay returns the pre-jitter delay before retry number retry (0-based):
// Base·backoffFactor^retry, capped at Max. Deterministic — the property
// tests assert monotone growth and the cap on this function alone.
func (b Backoff) delay(retry int) time.Duration {
	d := b.Base
	for i := 0; i < retry && d < b.Max; i++ {
		d *= backoffFactor
	}
	return min(d, b.Max)
}

// jittered maps a uniform sample u in [0,1) onto the jitter window
// [d·(1−backoffJitter), d].
func jittered(d time.Duration, u float64) time.Duration {
	return time.Duration(float64(d) * (1 - backoffJitter*u))
}

// HealthPolicy tunes the per-endpoint failure tracking. The zero value
// selects the defaults noted per field.
type HealthPolicy struct {
	// FailureThreshold is the number of consecutive failures before an
	// endpoint is quarantined (0 → 3).
	FailureThreshold int
	// Quarantine is the first quarantine length; it doubles with every
	// further failure (0 → 1s).
	Quarantine time.Duration
	// MaxQuarantine caps the doubling (0 → 10s).
	MaxQuarantine time.Duration
}

func (h HealthPolicy) withDefaults() HealthPolicy {
	if h.FailureThreshold <= 0 {
		h.FailureThreshold = 3
	}
	if h.Quarantine <= 0 {
		h.Quarantine = time.Second
	}
	if h.MaxQuarantine <= 0 {
		h.MaxQuarantine = 10 * time.Second
	}
	return h
}

// endpointHealth is one endpoint's consecutive-failure record.
type endpointHealth struct {
	fails int
	until time.Time // quarantined before this instant
}

// Stats is a snapshot of the peer's resilience counters — chaos tests
// assert that recovery machinery actually ran, not just that the final
// state converged.
type Stats struct {
	// RPCAttempts counts data-channel request attempts, retries included.
	RPCAttempts uint64
	// RPCFailures counts failed attempts; RPCRetries the re-attempts they
	// triggered.
	RPCFailures uint64
	RPCRetries  uint64
	// DeadShortCircuits counts requests refused locally because the
	// target endpoint was quarantined.
	DeadShortCircuits uint64
	// ResyncsTriggered counts reconcile actions started (pending apply,
	// missed-final catch-up, or root-mismatch repair); RepairHeals the
	// ones that completed.
	ResyncsTriggered uint64
	RepairHeals      uint64
	// ProposalRetries counts failed proposals on dirty shares, left dirty
	// for the reconciler (a transient denial: pending gate, stale base).
	ProposalRetries uint64
	// SyncRounds counts sequential anti-entropy waves across all
	// structural syncs; SyncRequests the request messages they sent
	// (Requests > Rounds ⇒ waves were pipelined across chunks).
	SyncRounds   uint64
	SyncRequests uint64
	// BatchCommits counts group-commit submissions (one batched
	// submitAndWaitMany call); BatchTxs the transactions they carried —
	// BatchTxs/BatchCommits is the realized mean batch size.
	BatchCommits uint64
	BatchTxs     uint64
	// DeltaGets and FullGets split proposal stagings (no-change probes
	// included) between the incremental get over the changed source rows
	// and the whole-source Lens.Get that bootstraps a share or follows a
	// swapped-in replica. FullGets rising with the update count means a
	// share is stuck on the O(table) path.
	DeltaGets uint64
	FullGets  uint64
	// FetchesServed and SyncsServed count data-channel requests this
	// peer answered, by kind (payload fetch vs structural sync round) —
	// the peer-side view of serve traffic the /metrics endpoint exports.
	FetchesServed uint64
	SyncsServed   uint64
	// ProofCacheHits/Misses split ProveView calls between memoized
	// proofs and fresh O(log n) tree walks; the cache resets on every
	// applied-sequence advance, so the hit rate is also a measure of
	// how read-hot shares are between updates.
	ProofCacheHits   uint64
	ProofCacheMisses uint64
	// ShardQueueDepth is the event backlog, a gauge: events delivered
	// and not yet dispatched, plus update requests inside unfinished
	// receive rounds (events.go). /metrics exports it as
	// medshare_peer_event_backlog and /readyz as eventBacklog; the field
	// keeps its older name because the benchmark reads it.
	ShardQueueDepth uint64
}

// statsCounters is the peer-internal atomic form of Stats.
type statsCounters struct {
	rpcAttempts       atomic.Uint64
	rpcFailures       atomic.Uint64
	rpcRetries        atomic.Uint64
	deadShortCircuits atomic.Uint64
	resyncsTriggered  atomic.Uint64
	repairHeals       atomic.Uint64
	proposalRetries   atomic.Uint64
	syncRounds        atomic.Uint64
	syncRequests      atomic.Uint64
	batchCommits      atomic.Uint64
	batchTxs          atomic.Uint64
	deltaGets         atomic.Uint64
	fullGets          atomic.Uint64
	fetchesServed     atomic.Uint64
	syncsServed       atomic.Uint64
	proofCacheHits    atomic.Uint64
	proofCacheMisses  atomic.Uint64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		RPCAttempts:       c.rpcAttempts.Load(),
		RPCFailures:       c.rpcFailures.Load(),
		RPCRetries:        c.rpcRetries.Load(),
		DeadShortCircuits: c.deadShortCircuits.Load(),
		ResyncsTriggered:  c.resyncsTriggered.Load(),
		RepairHeals:       c.repairHeals.Load(),
		ProposalRetries:   c.proposalRetries.Load(),
		SyncRounds:        c.syncRounds.Load(),
		SyncRequests:      c.syncRequests.Load(),
		BatchCommits:      c.batchCommits.Load(),
		BatchTxs:          c.batchTxs.Load(),
		DeltaGets:         c.deltaGets.Load(),
		FullGets:          c.fullGets.Load(),
		FetchesServed:     c.fetchesServed.Load(),
		SyncsServed:       c.syncsServed.Load(),
		ProofCacheHits:    c.proofCacheHits.Load(),
		ProofCacheMisses:  c.proofCacheMisses.Load(),
	}
}

// Stats returns a snapshot of the peer's resilience and write-path
// counters, plus the live event-backlog gauge read at call time.
func (p *Peer) Stats() Stats {
	st := p.stats.snapshot()
	st.ShardQueueDepth = p.eventBacklog()
	return st
}

// jitterRng is the process-wide jitter sampler. Jitter exists to spread
// concurrent retries apart, so shared seeding is fine — determinism of
// *fault* sampling lives in faultnet, not here.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(1))
)

func jitterSample() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRng.Float64()
}

// quarantined reports whether requests to endpoint are short-circuited.
func (p *Peer) quarantined(endpoint string) (time.Time, bool) {
	p.healthMu.Lock()
	defer p.healthMu.Unlock()
	h, ok := p.health[endpoint]
	if !ok || h.until.IsZero() {
		return time.Time{}, false
	}
	if !p.cfg.Clock.Now().Before(h.until) {
		// Quarantine expired: allow one probe through. The record keeps
		// its failure count, so a failed probe re-quarantines for longer.
		h.until = time.Time{}
		return time.Time{}, false
	}
	return h.until, true
}

// noteEndpointFailure records a failed request and quarantines the
// endpoint once it crosses the policy threshold, doubling per further
// failure up to the cap.
func (p *Peer) noteEndpointFailure(endpoint string) {
	pol := p.cfg.Health.withDefaults()
	p.healthMu.Lock()
	defer p.healthMu.Unlock()
	h, ok := p.health[endpoint]
	if !ok {
		h = &endpointHealth{}
		p.health[endpoint] = h
	}
	h.fails++
	if h.fails < pol.FailureThreshold {
		return
	}
	over := h.fails - pol.FailureThreshold
	if over > 16 {
		over = 16
	}
	q := pol.Quarantine << over
	if q > pol.MaxQuarantine || q <= 0 {
		q = pol.MaxQuarantine
	}
	h.until = p.cfg.Clock.Now().Add(q)
}

// noteEndpointOK clears an endpoint's failure record.
func (p *Peer) noteEndpointOK(endpoint string) {
	p.healthMu.Lock()
	delete(p.health, endpoint)
	p.healthMu.Unlock()
}

// retriableRPC reports whether a failed data-channel request is worth
// re-attempting. Unknown endpoints and missing handlers are
// configuration, not weather; a canceled caller has moved on. Everything
// else — timeouts, connection errors, injected faults, transient remote
// errors like ErrStaleData (the updater may not have applied its own
// update yet) — retries.
func retriableRPC(err error) bool {
	switch {
	case errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, p2p.ErrUnknownEndpoint), errors.Is(err, p2p.ErrNoHandler):
		return false
	}
	// Over TCP, remote errors arrive as text.
	msg := err.Error()
	return !strings.Contains(msg, "no request handler") &&
		!strings.Contains(msg, "unknown endpoint")
}

// channelRequest is the single data-channel RPC path: per-attempt
// context deadline (Config.RPCTimeout), bounded exponential backoff with
// jitter between attempts (Config.Retry), and health bookkeeping. All
// fetch and sync rounds go through here.
func (p *Peer) channelRequest(ctx context.Context, endpoint string, msg p2p.Message) (p2p.Message, error) {
	if until, dead := p.quarantined(endpoint); dead {
		p.stats.deadShortCircuits.Add(1)
		return p2p.Message{}, fmt.Errorf("%w: %s until %s", ErrPeerDown, endpoint, until.Format(time.RFC3339Nano))
	}
	b := p.cfg.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if attempt > 0 {
			p.stats.rpcRetries.Add(1)
			wait := jittered(b.delay(attempt-1), jitterSample())
			select {
			case <-p.cfg.Clock.After(wait):
			case <-ctx.Done():
				return p2p.Message{}, ctx.Err()
			}
		}
		p.stats.rpcAttempts.Add(1)
		attemptCtx, cancel := context.WithTimeout(ctx, p.cfg.RPCTimeout)
		resp, err := p.cfg.Transport.Request(attemptCtx, endpoint, msg)
		cancel()
		if err == nil {
			p.noteEndpointOK(endpoint)
			return resp, nil
		}
		p.stats.rpcFailures.Add(1)
		p.noteEndpointFailure(endpoint)
		lastErr = err
		if ctx.Err() != nil {
			return p2p.Message{}, fmt.Errorf("core: request to %s: %w", endpoint, err)
		}
		if !retriableRPC(err) {
			break
		}
	}
	return p2p.Message{}, fmt.Errorf("core: request to %s failed after retries: %w", endpoint, lastErr)
}

// retriableProposal reports whether a proposal denial is a transient
// ordering conflict: the share's pending gate was held by a concurrent
// update, or our base raced a competing proposal for the same sequence
// number. Both lift once the conflicting update finalizes and our
// replica catches up, so a dirty share stays dirty and the reconciler
// re-proposes it then; any other denial holds the share.
func retriableProposal(err error) bool {
	if err == nil || !errors.Is(err, ErrTxFailed) {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "not yet acknowledged") ||
		strings.Contains(msg, "sequence mismatch")
}
