package consensus

import (
	"context"
	"errors"
	"testing"
	"time"

	"medshare/internal/chain"
	"medshare/internal/identity"
)

func candidate(parent *chain.Block, proposer *identity.Identity) *chain.Block {
	b := &chain.Block{
		Header: chain.Header{
			Height:         parent.Header.Height + 1,
			PrevHash:       parent.Hash(),
			TimestampMicro: time.Now().UnixMicro(),
			Proposer:       proposer.Address(),
		},
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	return b
}

// TestPoASealRespectsCancellation: an in-turn authority whose context is
// done gets ErrSealAborted and leaves the block unsigned.
func TestPoASealRespectsCancellation(t *testing.T) {
	auth := identity.MustNew("authority")
	engine := NewPoA(true, auth.Address())
	b := candidate(chain.Genesis("t"), auth)
	if err := engine.Prepare(&b.Header); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := engine.Seal(ctx, b, auth); !errors.Is(err, ErrSealAborted) {
		t.Fatalf("want ErrSealAborted, got %v", err)
	}
	if len(b.Header.Sig) != 0 {
		t.Fatal("an aborted seal signed the block")
	}
	if err := engine.VerifyHeader(&b.Header); !errors.Is(err, ErrBadSig) {
		t.Fatalf("aborted block verifies: %v", err)
	}
}

func TestPoASealVerify(t *testing.T) {
	auth := identity.MustNew("authority")
	engine := NewPoA(false, auth.Address())
	b := candidate(chain.Genesis("t"), auth)
	if err := engine.Prepare(&b.Header); err != nil {
		t.Fatal(err)
	}
	if err := engine.Seal(context.Background(), b, auth); err != nil {
		t.Fatal(err)
	}
	if err := engine.VerifyHeader(&b.Header); err != nil {
		t.Fatal(err)
	}
}

func TestPoARejectsOutsider(t *testing.T) {
	auth := identity.MustNew("authority")
	outsider := identity.MustNew("outsider")
	engine := NewPoA(false, auth.Address())
	b := candidate(chain.Genesis("t"), outsider)
	_ = engine.Prepare(&b.Header)
	if err := engine.Seal(context.Background(), b, outsider); !errors.Is(err, ErrNotAuthority) {
		t.Fatalf("want ErrNotAuthority, got %v", err)
	}
}

func TestPoAVerifyRejectsForgedSignature(t *testing.T) {
	auth := identity.MustNew("authority")
	engine := NewPoA(false, auth.Address())
	b := candidate(chain.Genesis("t"), auth)
	_ = engine.Prepare(&b.Header)
	if err := engine.Seal(context.Background(), b, auth); err != nil {
		t.Fatal(err)
	}
	b.Header.Sig[0] ^= 1
	if err := engine.VerifyHeader(&b.Header); !errors.Is(err, ErrBadSig) {
		t.Fatalf("want ErrBadSig, got %v", err)
	}
}

func TestPoAVerifyRejectsUnsignedFromAuthority(t *testing.T) {
	auth := identity.MustNew("authority")
	engine := NewPoA(false, auth.Address())
	b := candidate(chain.Genesis("t"), auth)
	_ = engine.Prepare(&b.Header)
	if err := engine.VerifyHeader(&b.Header); !errors.Is(err, ErrBadSig) {
		t.Fatalf("want ErrBadSig, got %v", err)
	}
}

func TestPoAStrictRoundRobin(t *testing.T) {
	a := identity.MustNew("a")
	b := identity.MustNew("b")
	c := identity.MustNew("c")
	engine := NewPoA(true, a.Address(), b.Address(), c.Address())
	// Height h is the turn of authorities[h % 3].
	cases := []struct {
		height uint64
		id     *identity.Identity
		want   bool
	}{
		{0, a, true}, {1, b, true}, {2, c, true},
		{3, a, true}, {1, a, false}, {2, b, false},
	}
	for _, cse := range cases {
		if got := engine.MayPropose(cse.id.Address(), cse.height); got != cse.want {
			t.Errorf("MayPropose(%s, %d) = %v, want %v", cse.id.Name, cse.height, got, cse.want)
		}
	}
}

func TestPoAStrictSealOutOfTurn(t *testing.T) {
	a := identity.MustNew("a")
	b := identity.MustNew("b")
	engine := NewPoA(true, a.Address(), b.Address())
	blk := candidate(chain.Genesis("t"), b)
	blk.Header.Height = 2 // a's turn
	_ = engine.Prepare(&blk.Header)
	if err := engine.Seal(context.Background(), blk, b); !errors.Is(err, ErrNotOurTurn) {
		t.Fatalf("want ErrNotOurTurn, got %v", err)
	}
}

func TestPoAStrictVerifyOutOfTurn(t *testing.T) {
	a := identity.MustNew("a")
	b := identity.MustNew("b")
	relaxed := NewPoA(false, a.Address(), b.Address())
	strict := NewPoA(true, a.Address(), b.Address())
	blk := candidate(chain.Genesis("t"), b)
	blk.Header.Height = 2 // a's turn under strict rules
	_ = relaxed.Prepare(&blk.Header)
	if err := relaxed.Seal(context.Background(), blk, b); err != nil {
		t.Fatal(err)
	}
	if err := relaxed.VerifyHeader(&blk.Header); err != nil {
		t.Fatalf("relaxed should accept: %v", err)
	}
	if err := strict.VerifyHeader(&blk.Header); !errors.Is(err, ErrWrongTurn) {
		t.Fatalf("want ErrWrongTurn, got %v", err)
	}
}

func TestPoAEmptyAuthoritySet(t *testing.T) {
	engine := NewPoA(true)
	var h chain.Header
	if err := engine.Prepare(&h); !errors.Is(err, ErrNoAuthorities) {
		t.Fatalf("want ErrNoAuthorities, got %v", err)
	}
	if engine.MayPropose(identity.MustNew("x").Address(), 0) {
		t.Fatal("empty authority set should refuse all proposers")
	}
}

func TestPoASealNeedsIdentity(t *testing.T) {
	auth := identity.MustNew("a")
	engine := NewPoA(false, auth.Address())
	b := candidate(chain.Genesis("t"), auth)
	if err := engine.Seal(context.Background(), b, nil); !errors.Is(err, ErrUnknownSealKey) {
		t.Fatalf("want ErrUnknownSealKey, got %v", err)
	}
}
