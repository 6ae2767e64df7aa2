package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"

	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// RegisterShareArgs describes a new share from the initiating peer's point
// of view (Section III-C2: the initiator deploys the metadata "according
// to their agreement").
type RegisterShareArgs struct {
	// ID is the network-wide share identifier (e.g. "D13&D31").
	ID string
	// SourceTable is the initiator's local source table.
	SourceTable string
	// Lens derives the initiator's replica of the shared view.
	Lens bx.Lens
	// ViewName is the initiator's local name for the view (e.g. "D31").
	ViewName string
	// Peers are all sharing peers, including the initiator.
	Peers []identity.Address
	// WritePerm maps shared attributes to allowed writers (Fig. 3). An
	// attribute missing from the map is read-only for everyone.
	WritePerm map[string][]identity.Address
	// Authority may change permissions later; zero means the initiator.
	Authority identity.Address
}

// RegisterShare derives the initial view, registers the share metadata on
// the blockchain, and binds the share locally. It returns once the
// registration transaction commits.
//
// Re-registering a share that already exists on-chain is idempotent
// when this peer is among its sharing peers: the restart path. The
// on-chain metadata is left untouched and the share is rebound locally
// — from the durable store's verified replica when one is available,
// else by re-deriving the view and letting resync catch it up.
func (p *Peer) RegisterShare(ctx context.Context, a RegisterShareArgs) error {
	if a.ViewName == "" {
		a.ViewName = a.ID
	}
	if meta, err := p.Meta(a.ID); err == nil {
		if !metaHasPeer(meta, p.Address()) {
			return fmt.Errorf("%w: %s already registered without %s", ErrNotAuthorized, a.ID, p.Address())
		}
		return p.AttachShare(a.ID, a.SourceTable, a.Lens, a.ViewName)
	}
	src, err := p.snapshotTable(a.SourceTable)
	if err != nil {
		return err
	}
	view, err := a.Lens.Get(src)
	if err != nil {
		return fmt.Errorf("core: deriving initial view for %s: %w", a.ID, err)
	}
	spec, err := a.Lens.Spec().Marshal()
	if err != nil {
		return fmt.Errorf("core: encoding lens spec for %s: %w", a.ID, err)
	}
	// The share's priority secret: every replica stores the view under
	// treap priorities keyed by it, closing the shape-grinding window for
	// anyone outside the share. It rides in the on-chain metadata, which
	// only the consortium sees — the threat model is a row-key-choosing
	// outsider, not an authorized peer.
	prioSeed := make([]byte, 32)
	if _, err := rand.Read(prioSeed); err != nil {
		return fmt.Errorf("core: generating priority seed for %s: %w", a.ID, err)
	}
	view = view.Reseeded(prioSeed)
	cols := view.Schema().ColumnNames()
	ra := sharereg.RegisterArgs{
		ID:        a.ID,
		Peers:     a.Peers,
		Authority: a.Authority,
		Columns:   cols,
		WritePerm: a.WritePerm,
		LensSpec:  spec,
		PrioSeed:  prioSeed,
	}
	tx, err := p.buildTx(sharereg.FnRegister, a.ID, ra)
	if err != nil {
		return err
	}
	if _, err := p.submitAndWait(ctx, tx); err != nil {
		return fmt.Errorf("core: registering %s: %w", a.ID, err)
	}
	s := &Share{ID: a.ID, SourceTable: a.SourceTable, Lens: a.Lens, ViewName: a.ViewName, prioSeed: prioSeed}
	return p.bind(s, view, nil, false, HistoryEntry{Kind: "register", Note: "registered on-chain"})
}

// AttachShare binds an already-registered share on a counterparty peer:
// the peer declares which local source table and lens realize its replica
// of the shared view. The local view is materialized via get and must
// agree with the on-chain state (seq 0 at registration, or the provider's
// current data after updates — Resync, or the repair loop under
// Config.ResyncInterval, catches it up).
func (p *Peer) AttachShare(id, sourceTable string, lens bx.Lens, viewName string) error {
	meta, err := p.Meta(id)
	if err != nil {
		return err
	}
	if !metaHasPeer(meta, p.Address()) {
		return fmt.Errorf("%w: %s is not a peer of %s", ErrNotAuthorized, p.Address(), id)
	}
	if viewName == "" {
		viewName = id
	}
	s := &Share{ID: id, SourceTable: sourceTable, Lens: lens, ViewName: viewName, prioSeed: meta.PrioSeed}
	// Restart path: a verified replica in the durable store beats
	// re-deriving (the persisted view carries updates already applied on
	// this binding; a fresh Get(src) does too, but the persisted source
	// may itself be ahead of what the caller loaded).
	rv, rsrc, seq, err := p.restoredShare(id, sourceTable, viewName, meta)
	if err != nil {
		return err
	}
	if rv != nil {
		s.st.applied = seq
		return p.bind(s, rv, rsrc, true, HistoryEntry{Kind: "restored", Note: "replica recovered from durable store"})
	}
	src, err := p.snapshotTable(sourceTable)
	if err != nil {
		return err
	}
	view, err := lens.Get(src)
	if err != nil {
		return fmt.Errorf("core: deriving view for %s: %w", id, err)
	}
	s.st.applied = meta.Seq
	// Store the replica under the share's priority secret so both sides'
	// row trees — and hence their Merkle roots — agree.
	return p.bind(s, view.Reseeded(meta.PrioSeed), nil, false, HistoryEntry{Kind: "attach"})
}

// bind makes s a bound share over its replica view, and over its
// restored source table when src is set. The duplicate check and the
// insert are one hold of p.mu, so of concurrent binds of one ID exactly
// one wins and the others get ErrShareBound before they touch a table;
// s is published with its operation lock held, so no share operation
// runs on it before its tables are installed. A fresh binding is
// persisted. A restored one is already in the store, and is bound dirty
// at the source it is bound over: its replica was derived from a source
// that may have moved since, by an edit it never showed or through a
// sibling share bound before it.
func (p *Peer) bind(s *Share, view, src *reldb.Table, restored bool, e HistoryEntry) error {
	e.ShareID, e.Seq = s.ID, s.st.applied
	s.opMu.Lock()
	defer s.opMu.Unlock()
	p.mu.Lock()
	if _, dup := p.shares[s.ID]; dup {
		p.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrShareBound, s.ID)
	}
	p.shares[s.ID] = s
	p.mu.Unlock()
	if src != nil {
		p.cfg.DB.PutTable(src.Renamed(s.SourceTable))
	}
	p.cfg.DB.PutTable(view.Renamed(s.ViewName))
	if restored {
		// Marked under the source's commit lock, as a write marks; with no
		// source table there is nothing to re-derive from.
		_ = p.cfg.DB.ReplaceTable(s.SourceTable, func(cur *reldb.Table) (*reldb.Table, error) {
			s.stMu.Lock()
			s.st.mark(cur)
			s.stMu.Unlock()
			return cur, nil
		})
		p.wake()
	} else {
		p.persistShares(s)
	}
	p.record(e)
	p.logf("%s share %s (view %s) at seq %d, %d rows", e.Kind, s.ID, s.ViewName, e.Seq, view.Len())
	return nil
}

// View returns an independent snapshot of the current materialized
// replica of the shared view.
func (p *Peer) View(shareID string) (*reldb.Table, error) {
	s, err := p.share(shareID)
	if err != nil {
		return nil, err
	}
	return p.snapshotTable(s.ViewName)
}

// Source returns an independent snapshot of a local source table. Use
// UpdateSource to mutate.
func (p *Peer) Source(table string) (*reldb.Table, error) {
	return p.snapshotTable(table)
}

// UpdateSource applies a local mutation to a source table (the peer's own
// full data; no permission needed — it is their database). It does not
// propagate and marks no share dirty; call SyncShares or UpdateView
// afterwards, mirroring the paper's step 1 where the researcher first
// updates D2 locally.
func (p *Peer) UpdateSource(table string, mutate func(*reldb.Table) error) error {
	return p.cfg.DB.WithTable(table, mutate)
}

// ProposalResult reports a successfully admitted update proposal.
type ProposalResult struct {
	ShareID string
	// Seq is the sequence number the update will finalize as.
	Seq uint64
	// Cols are the changed attributes.
	Cols []string
	// TxID is the request_update transaction.
	TxID string
}

// UpdateView edits the shared view directly (entry-level CRUD of Fig. 4 on
// the shared table) and immediately embeds the edit into the local source
// before proposing — so source and view never diverge locally. The edit is
// diffed against the pre-edit view and embedded along the delta path, so
// an entry-level edit costs O(changed rows) in the source. The share's
// lock is held from the embed to the verdict, so the reconciler the embed
// wakes cannot propose the edit in between. It proposes through
// proposeShares; an edit that fails aborts before anything is staged.
//
// A nil mutate proposes what the local source changed: the share's view
// is regenerated from the source (get), diffed against the current
// replica and, if anything changed, requested on-chain (Fig. 5 steps
// 1-2). ErrNoChanges is returned when the view is unaffected; callers
// treat it as success.
func (p *Peer) UpdateView(ctx context.Context, shareID string, mutate func(*reldb.Table) error) (ProposalResult, error) {
	res, err := p.proposeShares(ctx, []string{shareID}, false, mutate)
	if len(res) == 1 {
		return res[0], nil
	}
	if err == nil {
		err = ErrNoChanges
	}
	return ProposalResult{}, err
}

// stagedProposal carries one share's update between optimistic staging
// and the commit verdict. The share's opMu is held by the caller for the
// staged proposal's whole lifetime.
type stagedProposal struct {
	s       *Share
	tx      *chain.Tx
	baseSeq uint64
	oldView *reldb.Table
	kind    string
	cols    []string
	mark    *reldb.Table // the dirty mark the staging took
}

// stageProposal derives the share's fresh view, diffs it against the
// replica, builds the request_update transaction, and optimistically
// installs the new view with the pre-proposal state kept as the rollback
// point. The caller holds s.opMu and must resolve the staged proposal
// with finalizeProposal or rollbackProposal once the transaction's fate
// is known.
//
// The get is incremental whenever the replica is still the version last
// derived from a remembered source snapshot: that snapshot is diffed
// against the current source (structural, O(changed rows)) and the
// changeset pushed through Lens.GetDelta onto the replica's own tree, so
// deriving, hashing and diffing the new view all cost O(changed rows).
// Otherwise — first proposal after binding or restart, or a replica
// swapped in by rollback, resync or repair — the whole source goes
// through Lens.Get once, which re-establishes the pair.
func (p *Peer) stageProposal(s *Share, marked bool) (*stagedProposal, error) {
	// Under the source's commit lock, a write is in the source read here
	// or marks the share again. The reconciler derives from the mark.
	var src, mark *reldb.Table
	err := p.cfg.DB.ReplaceTable(s.SourceTable, func(cur *reldb.Table) (*reldb.Table, error) {
		s.stMu.Lock()
		mark, src = s.st.takeMark(), cur
		s.stMu.Unlock()
		return cur, nil
	})
	if err != nil {
		return nil, err
	}
	if marked && mark != nil {
		src = mark
	}
	// The replica and its seq are read together: every transition that
	// moves the seq swaps the replica under stMu too.
	s.stMu.Lock()
	baseSeq, baseSrc, baseView := s.st.applied, s.st.derivedSrc, s.st.derivedView
	oldView, err := p.snapshotTable(s.ViewName)
	s.stMu.Unlock()
	if err != nil {
		return nil, err
	}
	var newView *reldb.Table
	var cs reldb.Changeset
	if baseSrc != nil && baseView.SameVersion(oldView) && baseSrc.SchemaSum() == src.SchemaSum() {
		p.stats.deltaGets.Add(1)
		var srcCs reldb.Changeset
		if srcCs, err = baseSrc.Diff(src); err == nil {
			newView, cs, err = bx.GetDelta(s.Lens, baseSrc, src, oldView, srcCs)
		}
	} else {
		p.stats.fullGets.Add(1)
		if newView, err = s.Lens.Get(src); err == nil {
			// Rebuilt under the share's priority secret before it is
			// hashed, diffed, or stored: the payload hash the
			// counterparties verify commits to the seeded tree shape.
			newView = s.seedView(newView)
			cs, err = oldView.Diff(newView)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: get on %s: %w", s.ID, err)
	}
	if cs.Empty() {
		// The replica is the view of this source too; the next diff
		// starts here instead of re-reading edits the view does not show.
		s.stMu.Lock()
		s.st.derived(baseSeq, src, oldView)
		s.stMu.Unlock()
		return nil, ErrNoChanges
	}
	colSet := cs.ChangedColumns(oldView.Schema())
	cols := make([]string, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	kind := updateKind(cs)

	ua := sharereg.UpdateArgs{
		ShareID:     s.ID,
		Cols:        cols,
		PayloadHash: hashHex(newView),
		Kind:        kind,
		BaseSeq:     baseSeq,
	}
	tx, err := p.buildTx(sharereg.FnRequestUpdate, s.ID, ua)
	if err != nil {
		return nil, err
	}

	// Refresh the replica and advance the applied sequence *before* the
	// request commits: the contract event may reach counterparties in the
	// same instant the block lands, and their fetch must already see the
	// new payload. The pre-proposal view is kept as the rollback point for
	// a contract denial or a counterparty rejection, and as the delta
	// base. A share that moved off baseSeq meanwhile (a rejection rolled
	// it back) or that a rejection held proposes nothing.
	s.stMu.Lock()
	ok := s.st.stage(baseSeq, marked, oldView, src, newView)
	if ok {
		p.cfg.DB.PutTable(newView.Renamed(s.ViewName))
	}
	s.stMu.Unlock()
	if !ok {
		return nil, errShareMoved
	}
	return &stagedProposal{s: s, tx: tx, baseSeq: baseSeq, oldView: oldView, kind: kind, cols: cols, mark: mark}, nil
}

// rollbackProposal undoes a staged proposal after a denial (permission,
// pending gate, stale base): the denied transition of shareState. A
// contract denial that will not lift holds the share; after any other
// failure a share the staging found dirty is marked again, and the
// reconciler's re-attempt counts as a proposal retry. A rejection that
// already rolled the seq back leaves nothing to undo.
func (p *Peer) rollbackProposal(st *stagedProposal, err error) {
	s := st.s
	held := errors.Is(err, ErrTxFailed) && !retriableProposal(err)
	s.stMu.Lock()
	restore, retry := s.st.denied(st.baseSeq+1, held, st.mark)
	if restore != nil {
		p.cfg.DB.PutTable(restore.Renamed(s.ViewName))
	}
	s.stMu.Unlock()
	if retry {
		p.stats.proposalRetries.Add(1)
	}
	if restore != nil {
		p.persistShares(s)
	}
}

// finalizeProposal records a staged proposal whose request committed.
// The caller persists the share: alone, or with the rest of its round.
// A counterparty's rejection may reach the event dispatcher before the
// verdict reaches us: it has already rolled the share back to the base
// and held it, so the commit of that seq changes and records nothing.
func (p *Peer) finalizeProposal(st *stagedProposal) ProposalResult {
	s := st.s
	seq := st.baseSeq + 1
	// The replica is refreshed from Get(src): the pair is aligned, and a
	// held edit is proposed (the reconciler never proposes a held share).
	s.stMu.Lock()
	live := s.st.committed(seq)
	s.stMu.Unlock()
	if live {
		p.record(HistoryEntry{ShareID: s.ID, Seq: seq, Kind: st.kind, Cols: st.cols, From: p.Address()})
		p.logf("proposed update on %s seq %d (cols %v)", s.ID, seq, st.cols)
	}
	return ProposalResult{ShareID: s.ID, Seq: seq, Cols: st.cols, TxID: st.tx.IDString()}
}

// ProposeUpdates proposes updates on many shares as one group commit:
// every changed share is staged, all request transactions are submitted
// in a single batch (one mempool pass, one gossip broadcast, one
// producer kick), the commits are awaited collectively, and the
// finalized shares are persisted in one store commit — so N independent
// updates cost one block, one fsync and one receive round per
// counterparty instead of N block intervals. Per-share sequence ordering
// is untouched (each share stages under its own opMu with its own
// BaseSeq), and a denial on one share rolls back only that share.
//
// Share opMu locks are acquired in sorted ID order and held across the
// collective wait; because every multi-share acquirer (this and the
// receive rounds of events.go) uses the same order and single-share
// paths hold only one, this cannot deadlock.
//
// Shares with no changes are skipped. Successful proposals are returned
// sorted by share ID; per-share failures are joined into the returned
// error alongside the partial results.
func (p *Peer) ProposeUpdates(ctx context.Context, shareIDs []string) ([]ProposalResult, error) {
	return p.proposeShares(ctx, shareIDs, false, nil)
}

// proposeShares is ProposeUpdates with mutate, when set, embedded into
// each share once it is locked (UpdateView's edit; a share whose embed
// fails is not staged); marked stages the reconciler's way.
func (p *Peer) proposeShares(ctx context.Context, shareIDs []string, marked bool, mutate func(*reldb.Table) error) ([]ProposalResult, error) {
	ids := append([]string(nil), shareIDs...)
	sort.Strings(ids)
	var errs []error
	var staged []*stagedProposal
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		s, err := p.lockShare(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if mutate != nil {
			if err := p.embedViewEdit(s, mutate); err != nil {
				s.opMu.Unlock()
				errs = append(errs, err)
				continue
			}
		}
		st, err := p.stageProposal(s, marked)
		if err != nil {
			s.opMu.Unlock()
			if err != ErrNoChanges {
				errs = append(errs, fmt.Errorf("core: update on %s denied: %w", id, err))
			}
			continue
		}
		staged = append(staged, st)
	}
	if len(staged) == 0 {
		return nil, errors.Join(errs...)
	}

	txs := make([]*chain.Tx, len(staged))
	for i, st := range staged {
		txs[i] = st.tx
	}
	verdicts := p.submitAndWaitMany(ctx, txs, nil)

	out := make([]ProposalResult, 0, len(staged))
	finalized := make([]*Share, 0, len(staged))
	for i, st := range staged {
		if err := verdicts[i]; err != nil {
			p.rollbackProposal(st, err)
			errs = append(errs, fmt.Errorf("core: update on %s denied: %w", st.s.ID, err))
			continue
		}
		out = append(out, p.finalizeProposal(st))
		finalized = append(finalized, st.s)
	}
	p.persistShares(finalized...)
	for _, st := range staged {
		st.s.opMu.Unlock()
	}
	return out, errors.Join(errs...)
}

// SyncShares proposes updates on every share derived from the given
// source table, returning the successful proposals sorted by share ID.
// Shares whose views are unaffected are skipped. All changed shares ride
// one group commit (ProposeUpdates): a single batch submission, one
// block, one receive round per counterparty — the many-shares fan-out of
// a hospital-scale peer. Every share is attempted even when some fail;
// the errors are joined.
func (p *Peer) SyncShares(ctx context.Context, sourceTable string) ([]ProposalResult, error) {
	p.mu.Lock()
	var ids []string
	for id, s := range p.shares {
		if s.SourceTable == sourceTable {
			ids = append(ids, id)
		}
	}
	p.mu.Unlock()
	return p.ProposeUpdates(ctx, ids)
}

// embedViewEdit applies a view-level edit and embeds it into the local
// source (the first half of UpdateView). The delta path is only sound
// while the stored replica equals the lens's current view of the source.
// After a rejection or denial rollback the two deliberately diverge (the
// view is restored, the source keeps the user's edit) — the share tracks
// that in its diverged flag, and the whole-view put (bx.Put, the delta
// put of the diff from the source's own view) re-embeds the whole view
// there instead of silently re-proposing the rejected rows alongside the
// new edit. The put runs inside the source's atomic replacement so it
// cannot overwrite a concurrent embed by another share over the same
// source. The edit reached the source through s, so the other shares
// over it are marked and the reconciler woken. The caller holds s.opMu.
func (p *Peer) embedViewEdit(s *Share, mutate func(*reldb.Table) error) error {
	view, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return err
	}
	edited := view.Clone()
	if err := mutate(edited); err != nil {
		return err
	}
	cs, err := view.Diff(edited)
	if err != nil {
		return err
	}
	s.stMu.Lock()
	diverged := s.st.diverged
	s.stMu.Unlock()
	err = p.cfg.DB.ReplaceTable(s.SourceTable, func(src *reldb.Table) (*reldb.Table, error) {
		var newSrc *reldb.Table
		var perr error
		if diverged {
			newSrc, perr = bx.Put(s.Lens, src, edited)
		} else {
			newSrc, _, perr = bx.PutDelta(s.Lens, src, edited, cs)
		}
		if perr != nil {
			return nil, perr
		}
		newSrc = newSrc.Renamed(s.SourceTable)
		p.markSiblings(s, newSrc)
		return newSrc, nil
	})
	if err != nil {
		return fmt.Errorf("core: put on %s: %w", s.ID, err)
	}
	p.wake()
	return nil
}

// WaitForShare blocks until the share's metadata is visible on this
// peer's node. Registration commits on the initiator's node first; peers
// attached to other nodes see it after the block gossips over.
func (p *Peer) WaitForShare(ctx context.Context, shareID string) (*sharereg.Meta, error) {
	var meta *sharereg.Meta
	err := p.awaitBlocks(ctx, "share "+shareID, func() (bool, error) {
		var err error
		meta, err = p.Meta(shareID)
		return err == nil, nil
	})
	return meta, err
}

// WaitFinal blocks until the share's on-chain sequence reaches seq (all
// peers acknowledged — the paper's gate for further operations).
func (p *Peer) WaitFinal(ctx context.Context, shareID string, seq uint64) error {
	return p.awaitBlocks(ctx, fmt.Sprintf("%s seq %d", shareID, seq), func() (bool, error) {
		meta, err := p.Meta(shareID)
		if err != nil {
			return false, err
		}
		return meta.Seq >= seq, nil
	})
}

// awaitBlocks re-evaluates check each time this peer's node applies a
// block, until it reports done, fails, or ctx ends (what names the wait
// in that error): chain state only changes when a block lands, so there
// is nothing to poll for between blocks.
func (p *Peer) awaitBlocks(ctx context.Context, what string, check func() (done bool, err error)) error {
	for {
		// Taken before the check, so a block landing in between wakes us.
		applied := p.cfg.Node.BlockApplied()
		if done, err := check(); done || err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: waiting for %s: %w", what, ctx.Err())
		case <-applied:
		}
	}
}

// SetPermission changes the allowed writers for one attribute. The caller
// must hold the share's authority (Fig. 3 "Authority to change
// permission").
func (p *Peer) SetPermission(ctx context.Context, shareID, column string, writers []identity.Address) error {
	tx, err := p.buildTx(sharereg.FnSetPermission, shareID, sharereg.PermissionArgs{
		ShareID: shareID, Column: column, Writers: writers,
	})
	if err != nil {
		return err
	}
	_, err = p.submitAndWait(ctx, tx)
	return err
}

// TransferAuthority assigns the permission-changing authority to another
// sharing peer.
func (p *Peer) TransferAuthority(ctx context.Context, shareID string, to identity.Address) error {
	tx, err := p.buildTx(sharereg.FnSetAuthority, shareID, sharereg.AuthorityArgs{
		ShareID: shareID, Authority: to,
	})
	if err != nil {
		return err
	}
	_, err = p.submitAndWait(ctx, tx)
	return err
}

// RemoveShare deletes the share's on-chain metadata (table-level Delete of
// Fig. 4) and drops the local binding. Only the owner may remove.
func (p *Peer) RemoveShare(ctx context.Context, shareID string) error {
	tx, err := p.buildTx(sharereg.FnRemove, shareID, nil)
	if err != nil {
		return err
	}
	tx.Args = [][]byte{[]byte(shareID)}
	if _, err := p.submitAndWait(ctx, tx); err != nil {
		return err
	}
	p.unbind(shareID)
	p.record(HistoryEntry{ShareID: shareID, Kind: "remove"})
	return nil
}

// unbind drops a removed share's binding, view and durable record,
// reporting whether it was bound. It takes the share's operation lock,
// so it lands after any round or proposal holding the share and nothing
// persists the share after its tombstone.
func (p *Peer) unbind(id string) bool {
	s, err := p.lockShare(id)
	if err != nil {
		return false
	}
	defer s.opMu.Unlock()
	p.mu.Lock()
	delete(p.shares, id)
	p.mu.Unlock()
	_ = p.cfg.DB.Drop(s.ViewName)
	p.persistShareRemoval(id)
	return true
}

func metaHasPeer(m *sharereg.Meta, addr identity.Address) bool {
	for _, a := range m.Peers {
		if a == addr {
			return true
		}
	}
	return false
}

func updateKind(cs reldb.Changeset) string {
	switch {
	case len(cs.Updated) > 0 && len(cs.Inserted) == 0 && len(cs.Deleted) == 0:
		return "update"
	case len(cs.Inserted) > 0 && len(cs.Updated) == 0 && len(cs.Deleted) == 0:
		return "create"
	case len(cs.Deleted) > 0 && len(cs.Updated) == 0 && len(cs.Inserted) == 0:
		return "delete"
	default:
		return "table"
	}
}
