// Package consensus provides the block-production engine: a
// proof-of-authority signer set (the "private blockchain" the paper
// recommends in Section IV-3), strict round-robin in deployment. It
// implements Engine and plugs into internal/node.
package consensus

import (
	"context"
	"errors"

	"medshare/internal/chain"
	"medshare/internal/identity"
)

// Errors returned by engines.
var (
	ErrSealAborted    = errors.New("consensus: sealing aborted")
	ErrNotAuthority   = errors.New("consensus: proposer is not an authority")
	ErrBadSig         = errors.New("consensus: bad proposer signature")
	ErrWrongTurn      = errors.New("consensus: proposer out of turn")
	ErrNotOurTurn     = errors.New("consensus: not this node's turn to propose")
	ErrNoAuthorities  = errors.New("consensus: authority set is empty")
	ErrUnknownSealKey = errors.New("consensus: sealing identity is required")
)

// Engine abstracts how blocks are produced and how their consensus fields
// are verified. PoA is the one implementation; tests wrap it to inject
// failures.
type Engine interface {
	// Prepare fills the consensus fields of a candidate header before
	// sealing.
	Prepare(h *chain.Header) error
	// Seal finalizes the block by signing it. Seal must respect ctx
	// cancellation.
	Seal(ctx context.Context, b *chain.Block, id *identity.Identity) error
	// VerifyHeader checks the consensus-specific validity of a header.
	VerifyHeader(h *chain.Header) error
	// MayPropose reports whether the identity may produce the block at
	// the given height.
	MayPropose(addr identity.Address, height uint64) bool
}
