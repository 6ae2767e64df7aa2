package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// Incoming updates are applied in receive rounds, the receiving side's
// mirror of ProposeUpdates. One dispatcher goroutine per Start generation
// reads the node's event subscription. It wakes when the node applies a
// block (the node buffers a block's events before it signals the block)
// and takes every event buffered. The update requests among them, for
// bound shares and from other peers, form one round (applyRound), run on
// its own goroutine; every other event (final, rejected, permission,
// removed) is handled inline, in delivery order. N requests that arrive
// in one block cost one store commit and one ack block, not N of each.
// Resync's pending branch runs a round of one (applyIncoming).
//
// Per-share order rests on opMu and the contract's gate of one pending
// update per share. Request n+1 cannot commit before this peer's ack for
// n, and that ack is submitted while the round applying n holds the
// share's opMu. So a round carrying n+1 is formed only after the round
// carrying n has taken the lock, and it waits behind it. A round holds at
// most one request per share; a replayed duplicate goes to a later round,
// and whichever of the two locks the share second finds the seq applied
// and does nothing. A removal takes the share's opMu too (unbind): it
// lands after any round holding the share, and a round that locks the
// share after it finds the share unbound and skips it.

// runEvents is one generation's dispatcher. Events still buffered at
// stop are abandoned; Resync recovers them like events missed while the
// peer was down.
func (p *Peer) runEvents(events <-chan contract.Event, stopped <-chan struct{}) {
	defer p.wg.Done()
	for {
		// Taken before the drain, so a block landing in between wakes us.
		applied := p.cfg.Node.BlockApplied()
		var evs []contract.Event
	drain:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					return // unsubscribed at stop
				}
				evs = append(evs, ev)
			default:
				break drain
			}
		}
		if len(evs) > 0 {
			p.dispatch(evs)
			continue
		}
		select {
		case <-stopped:
			return
		case <-applied:
		}
	}
}

// dispatch handles one drain: the update requests become receive rounds
// (a share that repeats starts the next round), and every other sharereg
// event is handled inline, in delivery order.
func (p *Peer) dispatch(evs []contract.Event) {
	var round []sharereg.EventPayload
	held := make(map[string]bool)
	for _, ev := range evs {
		if ev.Contract != sharereg.ContractName {
			continue
		}
		payload, err := sharereg.DecodeEvent(ev.Payload)
		if err != nil {
			continue
		}
		if ev.Name != sharereg.EvUpdateRequested {
			p.handleEvent(ev.Name, payload)
			continue
		}
		if _, err := p.share(payload.ShareID); err != nil || payload.From == p.Address() {
			continue // not a participant (or not yet attached; resync catches up), or our own proposal
		}
		if held[payload.ShareID] {
			p.startRound(round)
			round, held = nil, make(map[string]bool)
		}
		held[payload.ShareID] = true
		round = append(round, payload)
	}
	p.startRound(round)
}

// startRound applies a receive round on its own goroutine.
func (p *Peer) startRound(reqs []sharereg.EventPayload) {
	if len(reqs) == 0 {
		return
	}
	p.roundReqs.Add(int64(len(reqs)))
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.roundReqs.Add(-int64(len(reqs)))
		ctx, cancel := context.WithTimeout(context.Background(), txTimeout)
		defer cancel()
		if err := p.applyRound(ctx, reqs); err != nil {
			p.logf("receive round of %d: %v", len(reqs), err)
		}
	}()
}

// eventBacklog is the Stats gauge ShardQueueDepth: events
// buffered on the subscription plus requests inside unfinished rounds.
func (p *Peer) eventBacklog() uint64 {
	p.mu.Lock()
	n := len(p.inbox)
	p.mu.Unlock()
	return uint64(n) + uint64(p.roundReqs.Load())
}

// handleEvent processes one decoded sharereg event other than an update
// request.
func (p *Peer) handleEvent(name string, payload sharereg.EventPayload) {
	switch name {
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

// applyIncoming applies one update request as a round of one: Resync's
// pending branch.
func (p *Peer) applyIncoming(ctx context.Context, shareID string, seq uint64, from identity.Address, payloadHash string, cols []string) error {
	return p.applyRound(ctx, []sharereg.EventPayload{{ShareID: shareID, Seq: seq, From: from, PayloadHash: payloadHash, Cols: cols}})
}

// roundItem is one share's part of a receive round: the request, and the
// transaction the round sends for it — the ack, or a rejection when
// putErr is set; none when the update was already applied or its
// embedding failed.
type roundItem struct {
	s      *Share
	req    sharereg.EventPayload
	tx     *chain.Tx
	putErr error
}

// applyRound implements Fig. 5 steps 3-5 (and 9-11) for update requests
// on distinct shares. It takes their opMus in sorted ID order, as
// ProposeUpdates does, fetches, verifies and embeds every share
// concurrently, persists the round's replicas as one store commit, and
// only then submits the acks as one batch. A share whose put fails is
// rejected on-chain in the same batch, so it does not stall and its
// proposer rolls back, while the round's other shares finalize. Step 6,
// the cascade into overlapping shares, starts once the batch is
// submitted, so each ack and the next hop's request share a group-commit
// window (Fig. 5 in three blocks, not four). Cascades propose on sibling
// shares (taking their opMu), so they are joined only after the round
// releases its locks. Per-share failures are joined into the error.
func (p *Peer) applyRound(ctx context.Context, reqs []sharereg.EventPayload) error {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].ShareID < reqs[j].ShareID })
	var errs []error
	var items []*roundItem
	for _, r := range reqs {
		// Held until the acks commit: a proposal of ours that lost the
		// race for this seq has rolled back before we read AppliedSeq.
		s, err := p.lockShare(r.ShareID)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		items = append(items, &roundItem{s: s, req: r})
	}
	if err := forEachShare(items, func(it *roundItem) error { return p.embedIncoming(ctx, it) }); err != nil {
		errs = append(errs, err)
	}
	var installed []*Share
	var acked, sent []*roundItem
	var txs []*chain.Tx
	for _, it := range items {
		if it.tx == nil {
			continue
		}
		if it.putErr == nil {
			installed, acked = append(installed, it.s), append(acked, it)
		}
		txs, sent = append(txs, it.tx), append(sent, it)
	}
	// Every replica is durable before any ack leaves.
	p.persistShares(installed...)
	var cascaded chan error
	if len(txs) > 0 {
		verdicts := p.submitAndWaitMany(ctx, txs, func() {
			cascaded = make(chan error, 1)
			go func() {
				cascaded <- forEachShare(acked, func(it *roundItem) error { return p.cascade(ctx, it.s, it.req.Cols) })
			}()
		})
		for i, it := range sent {
			switch err := verdicts[i]; {
			case it.putErr != nil && err != nil:
				errs = append(errs, fmt.Errorf("core: put on %s failed (%v) and reject failed: %w", it.s.ID, it.putErr, err))
			case it.putErr != nil:
				p.record(HistoryEntry{ShareID: it.s.ID, Seq: it.req.Seq, Kind: "rejected", From: p.Address(), Note: it.putErr.Error()})
				errs = append(errs, fmt.Errorf("core: put on %s rejected: %w", it.s.ID, it.putErr))
			case err != nil:
				errs = append(errs, fmt.Errorf("core: acking %s seq %d: %w", it.s.ID, it.req.Seq, err))
			}
		}
	}
	for _, it := range items {
		it.s.opMu.Unlock()
	}
	if cascaded != nil {
		errs = append(errs, <-cascaded)
	}
	return errors.Join(errs...)
}

// embedIncoming performs steps 3-5 for one share of a round up to the
// acknowledgement — fetch, verify, put — and builds the transaction the
// round sends for it. A view edit with no translation into our source
// under the local lens gets a rejection instead of an ack. The caller
// holds the share's operation lock and persists the share before the ack
// leaves.
func (p *Peer) embedIncoming(ctx context.Context, it *roundItem) error {
	s, r := it.s, it.req
	s.stMu.Lock()
	applied := s.AppliedSeq
	s.stMu.Unlock()
	if applied >= r.Seq {
		return nil // already applied (e.g. via resync)
	}
	// Step 4: fetch the new view payload directly from the updater (a
	// row-level delta when it still holds our version); step 5: put it.
	a, err := p.acquire(ctx, s, r.From, r.Seq, r.PayloadHash)
	if err != nil {
		return err
	}
	if err := p.install(s, r.Seq, a); err != nil {
		if errors.Is(err, reldb.ErrNoSuchTable) {
			return err
		}
		it.putErr = err
		it.tx, err = p.buildTx(sharereg.FnRejectUpdate, s.ID, sharereg.RejectArgs{
			ShareID: s.ID, Seq: r.Seq, Reason: it.putErr.Error(),
		})
		return err
	}
	p.record(HistoryEntry{ShareID: s.ID, Seq: r.Seq, Kind: "applied", Cols: r.Cols, From: r.From})
	p.logf("applied update on %s seq %d from %s", s.ID, r.Seq, r.From.Short())

	// Acknowledge on-chain; once every peer acks, the contract finalizes
	// and the next update becomes admissible.
	it.tx, err = p.buildTx(sharereg.FnAckUpdate, s.ID, sharereg.AckArgs{ShareID: s.ID, Seq: r.Seq})
	return err
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

	// The depth bound counts successful proposals; concurrent ones may
	// overshoot it by fanoutWorkers-1 (it guards against runaway
	// cascades, it is not a quota), and no-change probes never count.
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
	if ev.From != p.Address() && p.unbind(ev.ShareID) {
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
	p.persistShares(s)
	p.record(HistoryEntry{ShareID: s.ID, Seq: meta.Seq, Kind: kind, From: from})
	p.logf("%s %s at seq %d from %s", kind, s.ID, meta.Seq, from.Short())
	return nil
}
