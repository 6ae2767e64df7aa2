package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// Incoming-event dispatch: shares are independent replicas, so events
// for *different* shares may be handled concurrently — a hospital-scale
// peer bound to thousands of shares applies incoming updates in
// parallel instead of serializing every fetch+put+ack behind one
// goroutine. The share space is statically partitioned across the
// peer's shard loops (hash(shareID) → shard), each owning a
// FIFO queue drained by its own long-lived goroutine. Events for the
// *same* share land on the same shard and are therefore handled in
// arrival order — the per-share sequence-number ordering the protocol
// relies on — while the per-share opMu makes cross-path interleavings
// safe (the same argument as the cascade/Resync fan-out pool).
// Compared to the previous design (one transient drainer goroutine per
// active share, all funneled through one semaphore and one global queue
// mutex), the sharded runtime has no per-event goroutine churn and no
// peer-wide lock on the hot path: dispatch touches only the target
// shard's mutex, so throughput scales with shards until the handlers
// are the bottleneck. Head-of-line blocking within a shard is accepted:
// a stalled handler delays only its shard, and the repair loop covers
// any share starved long enough to matter.

// shareEvent is one decoded sharereg event queued for a shard drainer
// (decoded once at dispatch; the handler never re-parses the payload).
type shareEvent struct {
	name    string
	payload sharereg.EventPayload
}

// eventShard is one slice of the partitioned event runtime: a FIFO
// queue plus a wake signal for its drainer goroutine.
type eventShard struct {
	mu    sync.Mutex
	queue []shareEvent
	// wake (capacity 1) nudges the drainer; a pending token already
	// covers any number of enqueues.
	wake chan struct{}
}

// shardIndex maps a share ID onto a shard (FNV-1a).
func shardIndex(shareID string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(shareID); i++ {
		h ^= uint64(shareID[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// dispatchEvent routes one committed contract event: sharereg events
// are enqueued on their share's shard (events without a share ID are
// handled inline). Called only from the peer's event goroutine.
func (p *Peer) dispatchEvent(ev contract.Event) {
	if ev.Contract != sharereg.ContractName {
		return
	}
	payload, err := sharereg.DecodeEvent(ev.Payload)
	if err != nil {
		return
	}
	if payload.ShareID == "" {
		p.handleEvent(ev.Name, payload)
		return
	}
	sh := p.evShards[shardIndex(payload.ShareID, len(p.evShards))]
	sh.mu.Lock()
	sh.queue = append(sh.queue, shareEvent{name: ev.Name, payload: payload})
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// runEventShard drains one shard's queue in FIFO order until the peer
// generation stops. Events still queued at stop are abandoned — Resync
// recovers them exactly like events lost while the peer is down.
func (p *Peer) runEventShard(sh *eventShard, stopped <-chan struct{}) {
	defer p.wg.Done()
	for {
		sh.mu.Lock()
		if len(sh.queue) > 0 {
			ev := sh.queue[0]
			sh.queue = sh.queue[1:]
			sh.mu.Unlock()
			select {
			case <-stopped:
				p.abandonShardQueues()
				return
			default:
			}
			p.handleEvent(ev.name, ev.payload)
			continue
		}
		sh.queue = nil
		sh.mu.Unlock()
		select {
		case <-stopped:
			p.abandonShardQueues()
			return
		case <-sh.wake:
		}
	}
}

// abandonShardQueues clears every shard queue at stop. Each stopping
// drainer calls it (idempotent), so no generation leaves stale events
// behind for the next Start to misorder ahead of fresh ones.
func (p *Peer) abandonShardQueues() {
	for _, sh := range p.evShards {
		sh.mu.Lock()
		sh.queue = nil
		sh.mu.Unlock()
	}
}

// shardQueueDepth sums the events currently queued across all shards —
// the Stats() gauge observing dispatch backlog.
func (p *Peer) shardQueueDepth() uint64 {
	var n uint64
	for _, sh := range p.evShards {
		sh.mu.Lock()
		n += uint64(len(sh.queue))
		sh.mu.Unlock()
	}
	return n
}

// handleEvent processes one decoded sharereg event. Events for one
// share are processed in order (by the share's queue drainer) so share
// state never races.
func (p *Peer) handleEvent(name string, payload sharereg.EventPayload) {
	switch name {
	case sharereg.EvUpdateRequested:
		p.onUpdateRequested(payload)
	case sharereg.EvUpdateFinal:
		p.mu.Lock()
		s, ok := p.shares[payload.ShareID]
		p.mu.Unlock()
		if ok {
			s.stMu.Lock()
			if s.backup != nil && s.backup.seq+1 == payload.Seq {
				s.backup = nil // our proposal finalized; drop the rollback point
			}
			s.stMu.Unlock()
		}
		p.record(HistoryEntry{
			ShareID: payload.ShareID, Seq: payload.Seq, Kind: "final",
			Cols: payload.Cols, From: payload.From,
		})
	case sharereg.EvUpdateRejected:
		p.onUpdateRejected(payload)
	case sharereg.EvPermissionSet:
		p.record(HistoryEntry{ShareID: payload.ShareID, Kind: "permission", Cols: []string{payload.Column}, From: payload.From})
	case sharereg.EvRemoved:
		p.onRemoved(payload)
	}
}

// onUpdateRequested implements Fig. 5 steps 3-5 (and 9-11): a sharing
// peer learns of an admitted update, fetches the payload from the
// updater, embeds it into its own source with put, acknowledges on-chain,
// and then checks its other shares for cascading (step 6).
func (p *Peer) onUpdateRequested(ev sharereg.EventPayload) {
	if ev.From == p.Address() {
		return // our own proposal; replica already refreshed
	}
	p.mu.Lock()
	_, bound := p.shares[ev.ShareID]
	p.mu.Unlock()
	if !bound {
		return // not a participant (or not yet attached; resync catches up)
	}
	ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
	defer cancel()
	if err := p.applyIncoming(ctx, ev.ShareID, ev.Seq, ev.From, ev.PayloadHash, ev.Cols); err != nil {
		p.logf("apply update %s seq %d failed: %v", ev.ShareID, ev.Seq, err)
	}
}

// applyIncoming fetches, verifies, applies, acknowledges, and cascades one
// incoming update.
func (p *Peer) applyIncoming(ctx context.Context, shareID string, seq uint64, from identity.Address, payloadHash string, cols []string) error {
	s, err := p.share(shareID)
	if err != nil {
		return err
	}
	// The share-level operation lock orders this apply against our own
	// in-flight proposals: if we optimistically advanced the replica for
	// a proposal that lost the race for this sequence number, the
	// rollback completes before we read AppliedSeq here. It is held until
	// the ack commits.
	s.opMu.Lock()
	ack, err := p.embedIncoming(ctx, s, seq, from, payloadHash, cols)
	if err == nil && ack != nil {
		err = p.cfg.Node.SubmitTx(ack)
	}
	if err != nil {
		s.opMu.Unlock()
		return err
	}
	// Step 6: cascade into overlapping shares over the same source. It
	// starts as soon as the ack is submitted, so the ack and the next
	// hop's request share a group-commit window (Fig. 5 in three blocks,
	// not four). Cascade proposes on *sibling* shares (taking their
	// opMu), so it is joined only after the origin's lock is released:
	// holding it across the join would deadlock two concurrent cascades
	// with opposite origins.
	cascaded := make(chan error, 1)
	go func() { cascaded <- p.cascade(ctx, s, cols) }()
	if ack != nil {
		if _, err = p.waitCommitted(ctx, ack); err != nil {
			err = fmt.Errorf("core: acking %s seq %d: %w", shareID, seq, err)
		}
	}
	s.opMu.Unlock()
	if cerr := <-cascaded; err == nil {
		err = cerr
	}
	return err
}

// embedIncoming performs steps 3-5 up to the acknowledgement (fetch,
// verify, put, persist) and returns the signed ack for the caller to
// submit; a nil ack means the update was already applied. The caller
// holds the share's operation lock.
func (p *Peer) embedIncoming(ctx context.Context, s *Share, seq uint64, from identity.Address, payloadHash string, cols []string) (*chain.Tx, error) {
	s.stMu.Lock()
	applied := s.AppliedSeq
	s.stMu.Unlock()
	if applied >= seq {
		return nil, nil // already applied (e.g. via resync)
	}
	// Step 4: fetch the new view payload directly from the updater (a
	// row-level delta when it still holds our version); step 5: put it.
	a, err := p.acquire(ctx, s, from, seq, payloadHash)
	if err != nil {
		return nil, err
	}
	err = p.install(s, seq, a)
	if errors.Is(err, reldb.ErrNoSuchTable) {
		return nil, err
	}
	if err != nil {
		// The view edit has no translation into our source under the
		// local lens: reject the pending update on-chain so the share
		// does not stall and the proposer rolls back.
		rej, berr := p.buildTx(sharereg.FnRejectUpdate, s.ID, sharereg.RejectArgs{
			ShareID: s.ID, Seq: seq, Reason: err.Error(),
		})
		if berr == nil {
			if _, serr := p.submitAndWait(ctx, rej); serr != nil {
				return nil, fmt.Errorf("core: put failed (%v) and reject failed: %w", err, serr)
			}
		}
		p.record(HistoryEntry{ShareID: s.ID, Seq: seq, Kind: "rejected", From: p.Address(), Note: err.Error()})
		return nil, fmt.Errorf("core: put on %s rejected: %w", s.ID, err)
	}
	p.record(HistoryEntry{ShareID: s.ID, Seq: seq, Kind: "applied", Cols: cols, From: from})
	p.logf("applied update on %s seq %d from %s", s.ID, seq, from.Short())

	// Acknowledge on-chain; once every peer acks, the contract finalizes
	// and the next update becomes admissible.
	return p.buildTx(sharereg.FnAckUpdate, s.ID, sharereg.AckArgs{ShareID: s.ID, Seq: seq})
}

// cascade regenerates and proposes updates on every other share derived
// from the same source whose visible columns overlap the incoming change
// (the dependency check of Fig. 5 step 6). Overlapping shares are
// proposed concurrently (bounded by fanoutWorkers): each sibling
// share serializes internally on its own opMu and the proposals target
// distinct on-chain shares, so their commit waits overlap safely.
// Convergence is guaranteed for well-behaved lenses because re-putting
// identical data yields an empty diff; maxCascadeDepth additionally
// bounds the number of proposals one incoming update may trigger on this
// peer.
func (p *Peer) cascade(ctx context.Context, origin *Share, changedCols []string) error {
	src, err := p.snapshotTable(origin.SourceTable)
	if err != nil {
		return err
	}
	srcSchema := src.Schema()

	p.mu.Lock()
	var candidates []*Share
	for _, s2 := range p.shares {
		if s2.ID != origin.ID && s2.SourceTable == origin.SourceTable {
			candidates = append(candidates, s2)
		}
	}
	p.mu.Unlock()
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ID < candidates[j].ID })

	// The overlap check is pure schema analysis — run it inline and fan
	// out only the shares the change actually reaches.
	var hits []*Share
	for _, s2 := range candidates {
		hit, err := bx.Overlaps(srcSchema, origin.Lens, changedCols, s2.Lens)
		if err != nil {
			return err
		}
		if hit {
			hits = append(hits, s2)
		}
	}

	// The depth bound counts *successful* proposals, exactly like the old
	// sequential loop: a worker refuses to propose once the bound is
	// reached. Concurrent in-flight proposals may overshoot by at most
	// fanoutWorkers-1 — the bound is runaway-cascade protection, not an
	// exact quota, and no-change probes never consume it.
	var proposals atomic.Int64
	b := p.cfg.Retry.withDefaults()
	return forEachShare(hits, func(s2 *Share) error {
		if proposals.Load() >= maxCascadeDepth {
			return fmt.Errorf("%w: share %s", ErrCascadeTooDeep, origin.ID)
		}
		res, err := p.ProposeUpdate(ctx, s2.ID)
		// A sibling share busy with a concurrent update (pending gate,
		// stale base) is a transient ordering conflict, not a dead end:
		// retry with backoff so the dependent share still carries the
		// change once the conflicting update settles.
		for attempt := 1; retriableProposal(err) && attempt < b.Attempts; attempt++ {
			p.stats.proposalRetries.Add(1)
			select {
			case <-p.cfg.Clock.After(jittered(b.delay(attempt-1), jitterSample())):
			case <-ctx.Done():
				return fmt.Errorf("core: cascading %s -> %s: %w", origin.ID, s2.ID, ctx.Err())
			}
			res, err = p.ProposeUpdate(ctx, s2.ID)
		}
		if err == ErrNoChanges {
			return nil // overlap was column-level only; data unaffected
		}
		if err != nil {
			return fmt.Errorf("core: cascading %s -> %s: %w", origin.ID, s2.ID, err)
		}
		proposals.Add(1)
		p.logf("cascaded %s -> %s seq %d", origin.ID, s2.ID, res.Seq)
		return nil
	})
}

// onUpdateRejected rolls the proposer's replica back to the pre-proposal
// snapshot when a counterparty could not apply the update.
func (p *Peer) onUpdateRejected(ev sharereg.EventPayload) {
	p.mu.Lock()
	s, ok := p.shares[ev.ShareID]
	p.mu.Unlock()
	if !ok {
		return
	}
	var bk *shareBackup
	s.stMu.Lock()
	if s.backup != nil && s.backup.seq+1 == ev.Seq {
		bk = s.backup
		s.backup = nil
		s.prev = nil // the retained delta base no longer matches
		s.AppliedSeq = bk.seq
		// The view rolls back but the source keeps the user's edit, so
		// the pair is diverged until a full put realigns it.
		s.diverged = true
	}
	s.stMu.Unlock()
	if bk == nil {
		return // not our proposal (or already resolved)
	}
	p.cfg.DB.PutTable(bk.view.Renamed(s.ViewName))
	p.persistShares(s)
	p.record(HistoryEntry{
		ShareID: ev.ShareID, Seq: ev.Seq, Kind: "rolled-back",
		From: ev.From, Note: ev.Kind,
	})
	p.logf("rolled back %s seq %d after rejection by %s", ev.ShareID, ev.Seq, ev.From.Short())
}

// onRemoved drops the local binding when the owner removes the share.
func (p *Peer) onRemoved(ev sharereg.EventPayload) {
	p.mu.Lock()
	s, ok := p.shares[ev.ShareID]
	if ok && ev.From != p.Address() {
		delete(p.shares, ev.ShareID)
	}
	p.mu.Unlock()
	if ok && ev.From != p.Address() {
		_ = p.cfg.DB.Drop(s.ViewName)
		p.persistShareRemoval(ev.ShareID)
		p.record(HistoryEntry{ShareID: ev.ShareID, Kind: "removed", From: ev.From})
	}
}

// Resync reconciles every bound share against on-chain state: pending
// updates we have not applied are fetched and acknowledged, and a
// replica behind the last finalized update (dropped events) or holding
// its seq under content the on-chain payload hash disagrees with is
// brought to that version from a counterparty. It makes the peer robust
// to lossy notification delivery and to replica corruption (a cold
// restart from a stale backup).
// Shares are reconciled concurrently (bounded by fanoutWorkers) —
// they are independent replicas, and a hospital-scale peer recovering
// hundreds of them mostly waits on fetches and ack commits. Every share
// is attempted even when some fail; the errors are joined. The
// background repair loop (Config.ResyncInterval) calls this
// periodically, so all three divergence classes self-heal with zero
// manual intervention.
func (p *Peer) Resync(ctx context.Context) error {
	p.mu.Lock()
	ids := make([]string, 0, len(p.shares))
	for id := range p.shares {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	sort.Strings(ids)

	return forEachShare(ids, func(id string) error {
		return p.reconcileShare(ctx, id)
	})
}

// reconcileShare is one share's anti-entropy step: compare local state
// against the on-chain metadata and heal whichever divergence class is
// found (unapplied pending update, missed finalized update, or root
// mismatch at an equal sequence number).
func (p *Peer) reconcileShare(ctx context.Context, id string) error {
	meta, err := p.Meta(id)
	if err != nil {
		return err
	}
	s, err := p.share(id)
	if err != nil {
		return nil // unbound concurrently (removed share)
	}
	s.stMu.Lock()
	applied := s.AppliedSeq
	s.stMu.Unlock()
	if pd := meta.Pending; pd != nil && pd.From != p.Address() && applied < pd.Seq {
		p.stats.resyncsTriggered.Add(1)
		if err := p.applyIncoming(ctx, id, pd.Seq, pd.From, pd.PayloadHash, pd.Cols); err != nil {
			return fmt.Errorf("core: resync %s pending: %w", id, err)
		}
	} else {
		// A cheap check every scan (the view's root is cached); catchUp
		// repeats it under the operation lock before touching anything.
		if kind, err := p.staleness(s, meta); kind == "" || err != nil {
			return err
		}
		p.stats.resyncsTriggered.Add(1)
		if err := p.catchUp(ctx, s); err != nil {
			return err
		}
	}
	p.stats.repairHeals.Add(1)
	return nil
}

// staleness reports how the replica differs from the chain's last final:
// "resynced" when behind it, "repaired" when it holds that seq over
// content the on-chain payload hash disagrees with (a restart from a
// stale or corrupt backup), and "" when it holds the version, is ahead,
// or a pending update or own proposal makes the view transient.
func (p *Peer) staleness(s *Share, meta *sharereg.Meta) (string, error) {
	s.stMu.Lock()
	applied, inflight := s.AppliedSeq, s.backup != nil
	s.stMu.Unlock()
	switch {
	case meta.LastPayloadHash == "" || applied > meta.Seq:
		return "", nil
	case applied < meta.Seq:
		return "resynced", nil
	case inflight || meta.Pending != nil:
		return "", nil
	}
	view, err := p.snapshotTable(s.ViewName)
	if err != nil || hashHex(view) == meta.LastPayloadHash {
		return "", err
	}
	return "repaired", nil
}

// catchUp brings a stale replica (see staleness) to the chain's last
// finalized version, from the last updater or else any other sharing
// peer. It re-checks under the operation lock: the scan that called it
// may have raced an in-flight apply or proposal.
func (p *Peer) catchUp(ctx context.Context, s *Share) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	meta, err := p.Meta(s.ID)
	if err != nil {
		return err
	}
	kind, err := p.staleness(s, meta)
	if kind == "" || err != nil {
		return err
	}
	from := meta.LastFrom
	for i := 0; i < len(meta.Peers) && (from.IsZero() || from == p.Address()); i++ {
		from = meta.Peers[i]
	}
	if from.IsZero() || from == p.Address() {
		return fmt.Errorf("core: no counterparty to heal %s from", s.ID)
	}
	a, err := p.acquire(ctx, s, from, meta.Seq, meta.LastPayloadHash)
	if err == nil {
		err = p.install(s, meta.Seq, a)
	}
	if err != nil {
		return fmt.Errorf("core: catching up %s: %w", s.ID, err)
	}
	p.record(HistoryEntry{ShareID: s.ID, Seq: meta.Seq, Kind: kind, From: from})
	p.logf("%s %s at seq %d from %s", kind, s.ID, meta.Seq, from.Short())
	return nil
}
