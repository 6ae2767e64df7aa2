package core

import (
	"context"
	"fmt"

	"medshare/internal/bx"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// acquired is a counterparty's view at a version the chain vouched for:
// view is seeded and hashes to the on-chain payload hash, cs is the
// minimal changeset from base to view, and base / baseSeq are the local
// replica and applied seq it started from.
type acquired struct {
	view, base *reldb.Table
	cs         reldb.Changeset
	baseSeq    uint64
}

// acquire gets from's replica of s at exactly seq, with content hashing
// to hash: the one exchange behind applying an update, catching up and
// repairing. It offers the local replica and its applied seq, and the
// provider decides: a delta from that version when it retained it, else
// the structural walk. A result served at another seq (providers serve
// newer versions, even staged ones) or for another share, or not hashing
// to hash, is rejected: nothing the chain has not vouched for gets
// installed. Every accepted result comes with its changeset from base:
// the wire's validated delta, or else a diff of base against the
// result. The caller holds s.opMu.
func (p *Peer) acquire(ctx context.Context, s *Share, from identity.Address, seq uint64, hash string) (*acquired, error) {
	applied := s.appliedSeq()
	base, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return nil, err
	}
	view, cs, served, stats, err := p.syncFrom(ctx, from, s.ID, seq, applied, base)
	if err != nil {
		return nil, err
	}
	if stats.Rounds > 0 {
		p.logf("structural sync on %s: %d rounds, %d nodes, %d rows inline, %d grafted, %d B received",
			s.ID, stats.Rounds, stats.NodesFetched, stats.RowsInline, stats.RowsGrafted, stats.BytesReceived)
	}
	// The on-chain hash commits to the seeded shape, so the result is
	// seeded before it is checked (O(1) when it inherits the replica's).
	view = s.seedView(view)
	if served != seq {
		return nil, fmt.Errorf("%w: %s served seq %d, want %d", ErrStaleData, s.ID, served, seq)
	}
	if hashHex(view) != hash {
		return nil, fmt.Errorf("%w: share %s seq %d", ErrPayloadHash, s.ID, seq)
	}
	if cs.Empty() {
		// A walk, or a delta that was not minimal. (An empty delta leaves
		// base's tree as it was: the diff is O(1).)
		if cs, err = base.Diff(view); err != nil {
			return nil, err
		}
	}
	return &acquired{view: view, base: base, cs: cs, baseSeq: applied}, nil
}

// install embeds an acquired version into the share's source and stores
// it as the replica at seq; the caller persists the share (a receive
// round persists all of its shares at once). The put runs inside the
// source's atomic replacement, so shares over one source embedding
// concurrently serialize instead of overwriting each other's updates.
// The put is the delta put of the acquired changeset, so only the rows
// the counterparty changed are written and a local edit not yet proposed
// survives, whether a delta answer or a walk brought the version. The
// whole-view put (bx.Put) runs instead where the changeset is no edit of
// our source: on a replica installed over at its own seq (a repair —
// untrusted, so it keeps no delta base either), on a diverged one, and
// when the delta put fails. A failed put changes nothing. The caller holds s.opMu.
//
// The write reached the source through s: it marks the other shares
// over it for the reconciler (events.go), which the caller wakes.
//
// The derived pair (see stageProposal) moves with the replica, inside
// the same replacement. If its snapshot is the source version being
// replaced, the put's output is the new snapshot: by PutGet the
// incoming view is its view. If the source has moved on since — a
// sibling share embedded an edit this view has yet to show — the
// snapshot takes the same delta put on its own, so that edit is still
// in the next proposal's diff, not silently taken as reflected.
func (p *Peer) install(s *Share, seq uint64, a *acquired) error {
	s.stMu.Lock()
	diverged, baseSrc, baseView := s.st.diverged, s.st.derivedSrc, s.st.derivedView
	s.stMu.Unlock()
	trusted := seq > a.baseSeq
	delta := trusted && !diverged
	paired := baseSrc != nil && baseView.SameVersion(a.base)
	local := a.view.Renamed(s.ViewName)
	return p.cfg.DB.ReplaceTable(s.SourceTable, func(src *reldb.Table) (*reldb.Table, error) {
		var newSrc *reldb.Table
		var err error
		if delta {
			newSrc, _, err = bx.PutDelta(s.Lens, src, local, a.cs)
		}
		if !delta || err != nil {
			newSrc, err = bx.Put(s.Lens, src, local)
		}
		if err != nil {
			return nil, err
		}
		switch {
		case paired && baseSrc.SameVersion(src):
			baseSrc = newSrc
		case paired && delta:
			baseSrc, _, _ = bx.PutDelta(s.Lens, baseSrc, local, a.cs) // nil on failure: no pair
		default:
			baseSrc = nil
		}
		// The replica and its seq move together, before the source is
		// published; a share that moved off the acquired base takes nothing.
		s.stMu.Lock()
		ok := s.st.installed(seq, a.baseSeq, a.base, baseSrc, local)
		if ok {
			p.cfg.DB.PutTable(local)
		}
		s.stMu.Unlock()
		if !ok {
			return nil, errShareMoved
		}
		newSrc = newSrc.Renamed(s.SourceTable)
		p.markSiblings(s, newSrc)
		return newSrc, nil
	})
}
