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
	shareID := s.ID
	s.stMu.Lock()
	applied := s.AppliedSeq
	diverged := s.diverged
	baseSrc, baseView := s.derivedSrc, s.derivedView
	s.stMu.Unlock()
	if applied >= seq {
		return nil, nil // already applied (e.g. via resync)
	}

	// Step 4: fetch the new view payload directly from the updater. We
	// advertise our current version so the updater can send a row-level
	// delta; the reconstructed table is verified against the on-chain
	// hash either way.
	curView, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return nil, err
	}
	newView, cs, hasDelta, _, err := p.fetchFrom(ctx, from, shareID, seq, applied, curView)
	if err != nil {
		return nil, err
	}
	// A delta fetch applied onto our (seeded) replica already carries the
	// share's priority seed; a full fetch arrives unseeded and is rebuilt
	// here, before the hash check — the on-chain hash commits to the
	// seeded shape.
	newView = s.seedView(newView)
	if got := hashHex(newView); got != payloadHash {
		return nil, fmt.Errorf("%w: share %s seq %d", ErrPayloadHash, shareID, seq)
	}

	// Step 5: put the updated view into the local source. When the fetch
	// arrived as a row-level changeset, put goes through the delta path —
	// a one-row edit touches one source row instead of rematerializing
	// the table. The put runs inside the source table's atomic
	// replacement so two shares over the same source embedding
	// concurrently (parallel Resync, event loop racing a Resync)
	// serialize instead of overwriting each other's applied updates. A
	// put failure means the view edit has no translation into our source
	// under the local lens; reject the pending update on-chain so the
	// share does not stall and the proposer rolls back.
	//
	// The derived pair (see stageProposal) moves with the replica, inside
	// the same replacement. If its snapshot is the source version being
	// replaced, the put's output is the new snapshot: by PutGet the
	// incoming view is its view. If the source has moved on since — a
	// sibling share embedded an edit this view has yet to show — the
	// snapshot takes the same delta put on its own, so that edit is still
	// in the next proposal's diff, not silently taken as reflected.
	local := newView.Renamed(s.ViewName)
	delta := hasDelta && !diverged
	paired := baseSrc != nil && baseView.SameVersion(curView)
	err = p.cfg.DB.ReplaceTable(s.SourceTable, func(src *reldb.Table) (*reldb.Table, error) {
		newSrc, err := putViaDelta(s.Lens, src, local, cs, delta)
		if err != nil {
			return nil, err
		}
		switch {
		case paired && baseSrc.SameVersion(src):
			baseSrc = newSrc
		case paired && delta:
			baseSrc, _, _ = bx.PutDelta(s.Lens, baseSrc, local, cs) // nil on failure: no pair
		default:
			baseSrc = nil
		}
		return newSrc.Renamed(s.SourceTable), nil
	})
	if errors.Is(err, reldb.ErrNoSuchTable) {
		return nil, err
	}
	if err != nil {
		rej, berr := p.buildTx(sharereg.FnRejectUpdate, shareID, sharereg.RejectArgs{
			ShareID: shareID, Seq: seq, Reason: err.Error(),
		})
		if berr == nil {
			if _, serr := p.submitAndWait(ctx, rej); serr != nil {
				return nil, fmt.Errorf("core: put failed (%v) and reject failed: %w", err, serr)
			}
		}
		p.record(HistoryEntry{ShareID: shareID, Seq: seq, Kind: "rejected", From: p.Address(), Note: err.Error()})
		return nil, fmt.Errorf("core: put on %s rejected: %w", shareID, err)
	}
	p.cfg.DB.PutTable(local)
	s.stMu.Lock()
	s.prev = &shareBackup{seq: applied, view: curView}
	s.AppliedSeq = seq
	s.diverged = false // put realigned source and view
	s.derivedSrc, s.derivedView = baseSrc, local
	s.stMu.Unlock()
	p.persistShares(s)
	p.record(HistoryEntry{ShareID: shareID, Seq: seq, Kind: "applied", Cols: cols, From: from})
	p.logf("applied update on %s seq %d from %s", shareID, seq, from.Short())

	// Acknowledge on-chain; once every peer acks, the contract finalizes
	// and the next update becomes admissible.
	return p.buildTx(sharereg.FnAckUpdate, shareID, sharereg.AckArgs{ShareID: shareID, Seq: seq})
}

// putViaDelta embeds an incoming view into the source along the delta
// path when the fetch produced a (validated, minimal) changeset — every
// lens embeds it natively in O(changed rows); there is no O(table)
// fallback behind the delta anymore. The whole-view put remains for
// exactly two cases: no changeset exists (full fetch, diverged replica),
// or the changeset disagrees with our replica (stale delta base) — there
// the authoritative full put decides before anything is rejected.
func putViaDelta(l bx.Lens, src, local *reldb.Table, cs reldb.Changeset, hasDelta bool) (*reldb.Table, error) {
	if hasDelta {
		newSrc, _, err := bx.PutDelta(l, src, local, cs)
		if err == nil {
			return newSrc, nil
		}
	}
	return l.Put(src, local)
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
// updates we have not applied are fetched and acknowledged, finalized
// updates we missed entirely (dropped events) are fetched from the last
// updater, and a replica whose Merkle root disagrees with the on-chain
// payload hash at the same sequence number is repaired from a
// counterparty. It makes the peer robust to lossy notification delivery
// and to replica corruption (a cold restart from a stale backup).
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
	inflight := s.backup != nil
	s.stMu.Unlock()

	switch {
	case meta.Pending != nil && meta.Pending.From != p.Address() && applied < meta.Pending.Seq:
		p.stats.resyncsTriggered.Add(1)
		if err := p.applyIncoming(ctx, id, meta.Pending.Seq, meta.Pending.From, meta.Pending.PayloadHash, meta.Pending.Cols); err != nil {
			return fmt.Errorf("core: resync %s pending: %w", id, err)
		}
	case meta.Seq > applied && meta.LastFrom != p.Address() && !meta.LastFrom.IsZero():
		p.stats.resyncsTriggered.Add(1)
		if err := p.resyncFinalized(ctx, s, meta); err != nil {
			return err
		}
	case meta.Pending == nil && !inflight && applied == meta.Seq && meta.LastPayloadHash != "":
		// Same sequence number as the chain — but does the content
		// actually match? A peer restarted from a stale or corrupt backup
		// can carry the right seq label over the wrong rows; the on-chain
		// payload hash is the arbiter. The cheap check runs every scan
		// (the root is cached on the table); the repair path re-verifies
		// under the operation lock before touching anything.
		view, err := p.snapshotTable(s.ViewName)
		if err != nil {
			return err
		}
		if hashHex(view) == meta.LastPayloadHash {
			return nil
		}
		p.stats.resyncsTriggered.Add(1)
		if err := p.repairMismatch(ctx, s); err != nil {
			return fmt.Errorf("core: repair %s: %w", id, err)
		}
	default:
		return nil
	}
	p.stats.repairHeals.Add(1)
	return nil
}

// repairMismatch heals a replica whose content disagrees with the
// on-chain payload hash at the chain's sequence number. The healthy
// content comes from a counterparty via the structural anti-entropy walk
// (only divergent subtrees cross the wire) with a full fetch as
// fallback, is verified against the on-chain hash, and is installed
// through a full put — the local replica is untrustworthy, so no delta
// base survives.
func (p *Peer) repairMismatch(ctx context.Context, s *Share) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	// Re-verify under the operation lock: the mismatch may have been a
	// transient read against an in-flight apply or proposal.
	meta, err := p.Meta(s.ID)
	if err != nil {
		return err
	}
	s.stMu.Lock()
	applied := s.AppliedSeq
	inflight := s.backup != nil
	s.stMu.Unlock()
	if inflight || meta.Pending != nil || applied != meta.Seq || meta.LastPayloadHash == "" {
		return nil
	}
	curView, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return err
	}
	if hashHex(curView) == meta.LastPayloadHash {
		return nil
	}

	// Pick a provider: the last updater, else any other sharing peer.
	from := meta.LastFrom
	if from.IsZero() || from == p.Address() {
		for _, a := range meta.Peers {
			if a != p.Address() {
				from = a
				break
			}
		}
	}
	if from.IsZero() || from == p.Address() {
		return fmt.Errorf("core: no counterparty to heal from")
	}

	var healed *reldb.Table
	if curView.Len() > 0 {
		if synced, syncSeq, stats, serr := p.syncFrom(ctx, from, s.ID, meta.Seq, curView); serr == nil && syncSeq == meta.Seq {
			if cand := s.seedView(synced); hashHex(cand) == meta.LastPayloadHash {
				healed = cand
				p.logf("repair %s: structural sync healed root mismatch (%d rounds, %d rows inline, %d grafted)",
					s.ID, stats.Rounds, stats.RowsInline, stats.RowsGrafted)
			}
		}
	}
	if healed == nil {
		full, _, _, seq, ferr := p.fetchFrom(ctx, from, s.ID, meta.Seq, 0, nil)
		if ferr != nil {
			return ferr
		}
		full = s.seedView(full)
		if seq != meta.Seq || hashHex(full) != meta.LastPayloadHash {
			return fmt.Errorf("%w: repair %s seq %d", ErrPayloadHash, s.ID, seq)
		}
		healed = full
	}

	local := healed.Renamed(s.ViewName)
	err = p.cfg.DB.ReplaceTable(s.SourceTable, func(src *reldb.Table) (*reldb.Table, error) {
		newSrc, err := s.Lens.Put(src, local)
		if err != nil {
			return nil, err
		}
		return newSrc.Renamed(s.SourceTable), nil
	})
	if err != nil {
		return err
	}
	p.cfg.DB.PutTable(local)
	s.stMu.Lock()
	s.prev = nil
	s.diverged = false
	s.stMu.Unlock()
	p.persistShares(s)
	p.record(HistoryEntry{ShareID: s.ID, Seq: meta.Seq, Kind: "repaired", From: from})
	p.logf("repaired %s at seq %d from %s", s.ID, meta.Seq, from.Short())
	return nil
}

// resyncFinalized catches the share up to an already-finalized update the
// peer missed entirely.
func (p *Peer) resyncFinalized(ctx context.Context, s *Share, meta *sharereg.Meta) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.stMu.Lock()
	applied := s.AppliedSeq
	diverged := s.diverged
	s.stMu.Unlock()
	if applied >= meta.Seq {
		return nil // caught up while waiting for the lock
	}
	curView, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return err
	}
	var (
		newView  *reldb.Table
		cs       reldb.Changeset
		hasDelta bool
		seq      uint64
	)
	// A gap of more than one version means the updater cannot hold our
	// exact previous version for a row-level delta — the long-diverged
	// case. Walk its Merkle row tree instead of fetching the whole view:
	// only divergent subtrees cross the wire, and the minimal changeset
	// falls out of a local structural diff so the put still takes the
	// delta path. An *empty* local replica is excluded (nothing to
	// graft, so one full fetch is strictly cheaper than the walk), and
	// any failure falls back to the plain fetch. The sync result is only
	// accepted at exactly the version whose hash the chain metadata
	// vouches for — a provider serving any other seq (newer included)
	// cannot get unverified contents installed.
	if meta.Seq > applied+1 && curView.Len() > 0 {
		switch synced, syncSeq, stats, serr := p.syncFrom(ctx, meta.LastFrom, s.ID, meta.Seq, curView); {
		case serr != nil:
			p.logf("structural sync on %s failed (%v); falling back to fetch", s.ID, serr)
		case syncSeq != meta.Seq:
			p.logf("structural sync on %s served seq %d, want %d; falling back to fetch", s.ID, syncSeq, meta.Seq)
		case hashHex(synced) != meta.LastPayloadHash:
			// The walk completed but assembled the wrong contents (e.g.
			// the provider served a racing install) — fall back to the
			// plain fetch instead of failing the whole resync.
			p.logf("structural sync on %s: payload hash mismatch; falling back to fetch", s.ID)
		default:
			if diffCs, derr := curView.Diff(synced); derr == nil {
				newView, cs, hasDelta, seq = synced, diffCs, true, syncSeq
				p.logf("structural sync on %s: %d rounds, %d nodes, %d rows inline, %d grafted, %d B received",
					s.ID, stats.Rounds, stats.NodesFetched, stats.RowsInline, stats.RowsGrafted, stats.BytesReceived)
			}
		}
	}
	if newView == nil {
		newView, cs, hasDelta, seq, err = p.fetchFrom(ctx, meta.LastFrom, s.ID, meta.Seq, applied, curView)
		if err != nil {
			return fmt.Errorf("core: resync %s: %w", s.ID, err)
		}
	}
	// Structural-sync results inherit the seed from the local base; full
	// fetches are rebuilt under it here, before the hash check.
	newView = s.seedView(newView)
	if got := hashHex(newView); seq == meta.Seq && got != meta.LastPayloadHash {
		return fmt.Errorf("%w: resync %s seq %d", ErrPayloadHash, s.ID, seq)
	}
	local := newView.Renamed(s.ViewName)
	err = p.cfg.DB.ReplaceTable(s.SourceTable, func(src *reldb.Table) (*reldb.Table, error) {
		newSrc, err := putViaDelta(s.Lens, src, local, cs, hasDelta && !diverged)
		if err != nil {
			return nil, err
		}
		return newSrc.Renamed(s.SourceTable), nil
	})
	if err != nil {
		return err
	}
	p.cfg.DB.PutTable(local)
	s.stMu.Lock()
	s.prev = &shareBackup{seq: applied, view: curView}
	s.AppliedSeq = seq
	s.diverged = false // put realigned source and view
	s.stMu.Unlock()
	p.persistShares(s)
	p.record(HistoryEntry{ShareID: s.ID, Seq: seq, Kind: "resynced", From: meta.LastFrom})
	return nil
}
