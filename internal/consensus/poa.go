package consensus

import (
	"context"
	"crypto/ed25519"

	"medshare/internal/chain"
	"medshare/internal/identity"
)

// PoA is a proof-of-authority engine: a fixed authority set signs blocks.
// In strict mode authorities take turns round-robin by height (the
// production configuration: one proposer per height); in relaxed mode any
// authority may seal any height (useful in single-node tests).
type PoA struct {
	// Authorities is the ordered signer set.
	Authorities []identity.Address
	// Strict enables round-robin turn enforcement.
	Strict bool
}

// NewPoA creates a proof-of-authority engine over the given signer set.
func NewPoA(strict bool, authorities ...identity.Address) *PoA {
	return &PoA{Authorities: authorities, Strict: strict}
}

// Prepare implements Engine.
func (p *PoA) Prepare(h *chain.Header) error {
	if len(p.Authorities) == 0 {
		return ErrNoAuthorities
	}
	h.Difficulty = 0
	h.Nonce = 0
	return nil
}

// Seal implements Engine: the authority signs the header.
func (p *PoA) Seal(ctx context.Context, b *chain.Block, id *identity.Identity) error {
	if id == nil {
		return ErrUnknownSealKey
	}
	select {
	case <-ctx.Done():
		return ErrSealAborted
	default:
	}
	if !p.MayPropose(id.Address(), b.Header.Height) {
		if p.isAuthority(id.Address()) {
			return ErrNotOurTurn
		}
		return ErrNotAuthority
	}
	b.Header.Proposer = id.Address()
	b.Header.ProposerPub = append([]byte(nil), id.PublicKey()...)
	sh := b.Header.SigHash()
	b.Header.Sig = id.Sign(sh[:])
	b.ResetHashCache() // sealing mutated the header
	return nil
}

// VerifyHeader implements Engine.
func (p *PoA) VerifyHeader(h *chain.Header) error {
	if !p.isAuthority(h.Proposer) {
		return ErrNotAuthority
	}
	if p.Strict && !p.MayPropose(h.Proposer, h.Height) {
		return ErrWrongTurn
	}
	if len(h.ProposerPub) != ed25519.PublicKeySize || len(h.Sig) == 0 {
		return ErrBadSig
	}
	sh := h.SigHash()
	if err := identity.Verify(h.Proposer, ed25519.PublicKey(h.ProposerPub), sh[:], h.Sig); err != nil {
		return ErrBadSig
	}
	return nil
}

// MayPropose implements Engine.
func (p *PoA) MayPropose(addr identity.Address, height uint64) bool {
	if len(p.Authorities) == 0 {
		return false
	}
	if !p.Strict {
		return p.isAuthority(addr)
	}
	return p.Authorities[int(height%uint64(len(p.Authorities)))] == addr
}

func (p *PoA) isAuthority(addr identity.Address) bool {
	for _, a := range p.Authorities {
		if a == addr {
			return true
		}
	}
	return false
}
