// Package bx implements well-behaved asymmetric lenses (bidirectional
// transformations) over reldb tables, the synchronization mechanism of the
// paper (Section II-B): get derives a fine-grained view from a full source
// table, and put embeds an updated view back into the source, subject to
// the round-tripping laws
//
//	GetPut: put(s, get(s)) = s
//	PutGet: get(put(s, v)) = v
//
// Each lens states its put once, on changesets (PutDelta); the whole-table
// put (Put) is that delta put applied to the diff between the lens's
// current view of the source and the new view, as in the delta-based
// formulation of Diskin, Xiong and Czarnecki (JOT 2011). Get stays native:
// it is the O(n) bootstrap of a share and the oracle GetDelta is checked
// against.
//
// Lenses are built from combinators — Project, Select, Rename, Join,
// Compose — and carry a serializable Spec so a share's lens can be
// registered as on-chain metadata and reconstructed by any authorized
// peer.
package bx

import (
	"errors"

	"medshare/internal/reldb"
)

// Errors reported by lens operations.
var (
	// ErrPutViolation is returned when put cannot embed the view (for
	// example, a view row violates the selection predicate, or an insert
	// through a projection lens is forbidden by policy).
	ErrPutViolation = errors.New("bx: put violation")
	// ErrSpecInvalid is returned for malformed lens specifications.
	ErrSpecInvalid = errors.New("bx: invalid lens spec")
	// ErrLawViolation is returned by the law checkers when a lens fails
	// GetPut or PutGet on the supplied data.
	ErrLawViolation = errors.New("bx: law violation")
)

// Lens is an asymmetric lens between a source table and a view table.
// Implementations must be pure: no method may mutate its arguments, and
// all must be deterministic.
//
// Both directions carry a row-level changeset in O(changed rows) work
// (GetDelta, PutDelta), because the sharing layer's whole update pipeline
// — proposals, entry-level edits, incoming-update application, sibling
// re-derivation, resync — runs on changesets. Get derives the whole view
// where no changeset exists (share bootstrap); the whole-view put is the
// package function Put, derived from PutDelta.
type Lens interface {
	// Get computes the view of src (the forward transformation).
	Get(src *reldb.Table) (*reldb.Table, error)
	// GetDelta computes the view of newSrc given oldView, the lens's view
	// of oldSrc (Get(oldSrc), under any priority seed), and srcCs, the
	// changeset from oldSrc to newSrc (reldb.Table.Diff, or the source
	// changeset a PutDelta returned). The result is built on oldView's
	// tree — its seed, its untouched subtrees and their cached digests
	// carry over — and comes with the minimal changeset from oldView, as
	// oldView.Diff would report it. It equals Get(newSrc) reseeded like
	// oldView, in O(changed source rows) instead of O(table), and fails
	// where Get(newSrc) fails. It never mutates its arguments.
	GetDelta(oldSrc, newSrc, oldView *reldb.Table, srcCs reldb.Changeset) (*reldb.Table, reldb.Changeset, error)
	// PutDelta embeds the edited view into src (the backward
	// transformation) given cs, the changeset from the lens's current view
	// of src (Get(src)) to view, as produced by reldb.Table.Diff. It
	// returns the updated source and the changeset applied to the source
	// (for carrying the delta through composed lenses), in O(changed
	// rows). It never mutates src or view, and rejects edits the lens's
	// policies forbid with ErrPutViolation.
	PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error)
	// Spec returns the serializable description of the lens.
	Spec() Spec
}

// Policy values controlling how a projection lens handles structural
// (insert/delete) edits made on the view.
const (
	// PolicyForbid rejects the edit with ErrPutViolation.
	PolicyForbid = "forbid"
	// PolicyApply propagates the edit into the source (deleting matching
	// source rows, or inserting new ones using the configured defaults).
	PolicyApply = "apply"
)
