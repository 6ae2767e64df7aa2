package core

import (
	"cmp"

	"medshare/internal/reldb"
)

// shareState is one share's protocol state, guarded by Share.stMu. Its
// methods are the only code that changes it, and each is a pure function
// of the state and its arguments: the caller runs the effects it returns
// (restore the view, persist, record history, wake the reconciler). Every
// transition is keyed by a seq and does nothing unless that seq is the
// current one, so a late event for a seq already resolved is a no-op.
//
// Transitions:
//   - stage(base): our proposal of base+1 over the replica at base;
//     refused when the share moved off base, or for the reconciler when
//     the share is held.
//   - denied(seq, hold, mark): a contract denial or a counterparty's
//     rejection of our staged seq rolls the replica back to prev. The
//     source keeps the user's edit, so the pair is diverged; hold keeps
//     the edit from the reconciler, else mark is marked again for retry.
//   - committed(seq): our request for seq committed. It realigns the
//     pair and releases a hold only while applied is still seq: after a
//     rejection, applied is back at the base.
//   - final(seq): every peer acknowledged our seq; the rollback point
//     goes, prev stays as the delta base.
//   - installed(seq, base): a counterparty's version replaced the
//     replica at base.
//   - derived(seq, src, view): the replica at seq is Lens.Get(src).
//   - mark(src), takeMark(): a source version the replica may not show.
//
// Invariants: staged implies applied == prev.seq+1; applied only rises,
// except by a rollback to the base its staging recorded; a held share is
// not proposed by the reconciler until a user's proposal on it commits;
// no committed or final effect follows the rollback of its seq.
type shareState struct {
	// applied is the last fully applied (or our staged) seq.
	applied uint64
	// prev retains the previous version of the replica: the delta base
	// serveSync answers from, and while staged our rollback point.
	prev *shareVersion
	// staged marks our own proposal of applied as unfinalized.
	staged bool
	// diverged marks a replica that is no longer Lens.Get(source), after
	// a rollback: puts then take bx.Put, which re-embeds the whole view.
	diverged bool
	// held keeps a rejected or denied edit from the reconciler.
	held bool
	// dirty is a source version the replica may not show, which the
	// reconciler derives from.
	dirty *reldb.Table
	// derivedSrc and derivedView are a source snapshot and the replica
	// version that is Lens.Get of it, trusted only while derivedView is
	// the stored replica (see stageProposal).
	derivedSrc, derivedView *reldb.Table
}

// shareVersion is a (sequence, view snapshot) pair.
type shareVersion struct {
	seq  uint64
	view *reldb.Table
}

func (st *shareState) stage(base uint64, marked bool, view, src, newView *reldb.Table) bool {
	if st.applied != base || marked && st.held {
		return false
	}
	st.prev = &shareVersion{seq: base, view: view}
	st.applied, st.staged = base+1, true
	st.derivedSrc, st.derivedView = src, newView
	return true
}

// denied returns the view to restore (nil when seq was not staged) and
// whether mark was marked again.
func (st *shareState) denied(seq uint64, hold bool, mark *reldb.Table) (restore *reldb.Table, retry bool) {
	if !st.staged || st.applied != seq {
		return nil, false
	}
	restore = st.prev.view
	st.applied, st.prev, st.staged, st.diverged = st.prev.seq, nil, false, true
	if hold {
		st.held, st.dirty = true, nil
	} else if mark != nil {
		st.dirty, retry = cmp.Or(st.dirty, mark), true
	}
	return restore, retry
}

func (st *shareState) committed(seq uint64) bool {
	if st.applied != seq {
		return false
	}
	st.held, st.diverged = false, false
	return true
}

func (st *shareState) final(seq uint64) bool {
	if !st.staged || st.applied != seq {
		return false
	}
	st.staged = false
	return true
}

// installed takes seq over base (equal on a repair, which keeps no
// delta base: the replacement is untrusted).
func (st *shareState) installed(seq, base uint64, baseView, derivedSrc, view *reldb.Table) bool {
	if st.applied != base || seq < base {
		return false
	}
	st.prev = nil
	if seq > base {
		st.prev = &shareVersion{seq: base, view: baseView}
	}
	st.applied, st.staged, st.diverged = seq, false, false
	st.derivedSrc, st.derivedView = derivedSrc, view
	return true
}

// derived records that view, the replica at seq, is Lens.Get(src).
func (st *shareState) derived(seq uint64, src, view *reldb.Table) {
	if st.applied == seq {
		st.derivedSrc, st.derivedView = src, view
	}
}

func (st *shareState) mark(src *reldb.Table) { st.dirty = src }

func (st *shareState) takeMark() *reldb.Table {
	m := st.dirty
	st.dirty = nil
	return m
}

// due reports whether the reconciler should propose the share.
func (st *shareState) due() bool { return st.dirty != nil && !st.held }
