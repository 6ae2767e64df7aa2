package chain

import (
	"errors"
	"testing"

	"medshare/internal/identity"
	"medshare/internal/merkle"
)

func signedTx(t *testing.T, id *identity.Identity, shareID string, nonce uint64) *Tx {
	t.Helper()
	tx := &Tx{
		Contract: "sharereg",
		Fn:       "request_update",
		Args:     [][]byte{[]byte(`{"shareId":"` + shareID + `"}`)},
		ShareID:  shareID,
		Nonce:    nonce,
	}
	tx.Sign(id)
	return tx
}

func TestTxSignVerify(t *testing.T) {
	id := identity.MustNew("a")
	tx := signedTx(t, id, "s1", 1)
	if err := tx.Verify(); err != nil {
		t.Fatal(err)
	}
	if tx.From != id.Address() {
		t.Fatal("From not set by Sign")
	}
}

func TestTxVerifyRejectsUnsigned(t *testing.T) {
	tx := &Tx{Contract: "c", Fn: "f"}
	if err := tx.Verify(); !errors.Is(err, ErrTxUnsigned) {
		t.Fatalf("want ErrTxUnsigned, got %v", err)
	}
}

func TestTxVerifyRejectsTampering(t *testing.T) {
	id := identity.MustNew("a")
	tx := signedTx(t, id, "s1", 1)
	tx.Fn = "ack_update"
	if err := tx.Verify(); !errors.Is(err, ErrTxBadSig) {
		t.Fatalf("want ErrTxBadSig, got %v", err)
	}
}

func TestTxVerifyRejectsWrongSender(t *testing.T) {
	a, b := identity.MustNew("a"), identity.MustNew("b")
	tx := signedTx(t, a, "s1", 1)
	tx.From = b.Address()
	if err := tx.Verify(); !errors.Is(err, ErrTxBadSig) {
		t.Fatalf("want ErrTxBadSig, got %v", err)
	}
}

func TestTxIDUniqueness(t *testing.T) {
	id := identity.MustNew("a")
	t1 := signedTx(t, id, "s1", 1)
	t2 := signedTx(t, id, "s1", 2) // same content, different nonce
	if t1.ID() == t2.ID() {
		t.Fatal("nonce must differentiate tx IDs")
	}
	t3 := signedTx(t, id, "s1", 1)
	if t1.ID() != t3.ID() {
		t.Fatal("identical txs must share an ID")
	}
}

func TestSigHashCoversAllFields(t *testing.T) {
	id := identity.MustNew("a")
	base := signedTx(t, id, "s1", 1)
	mutations := []func(*Tx){
		func(x *Tx) { x.Contract = "other" },
		func(x *Tx) { x.Fn = "other" },
		func(x *Tx) { x.Args = [][]byte{[]byte("other")} },
		func(x *Tx) { x.ShareID = "other" },
		func(x *Tx) { x.Nonce = 99 },
		func(x *Tx) { x.TimestampMicro = 99 },
	}
	for i, mut := range mutations {
		x := *base
		mut(&x)
		if x.SigHash() == base.SigHash() {
			t.Errorf("mutation %d not covered by SigHash", i)
		}
	}
}

func buildBlock(t *testing.T, parent *Block, txs []*Tx, proposer *identity.Identity) *Block {
	t.Helper()
	b := &Block{
		Header: Header{
			Height:   parent.Header.Height + 1,
			PrevHash: parent.Hash(),
			Proposer: proposer.Address(),
		},
		Txs: txs,
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	return b
}

func TestBlockVerifyStructure(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	b := buildBlock(t, g, []*Tx{signedTx(t, id, "s1", 1), signedTx(t, id, "s2", 2)}, id)
	if err := b.VerifyStructure(nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRejectsBadTxRoot(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	b := buildBlock(t, g, []*Tx{signedTx(t, id, "s1", 1)}, id)
	b.Header.TxRoot[0] ^= 1
	if err := b.VerifyStructure(nil); !errors.Is(err, ErrBadTxRoot) {
		t.Fatalf("want ErrBadTxRoot, got %v", err)
	}
}

func TestBlockRejectsShareConflict(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	// Two transactions on the same share in one block violate the
	// paper's rule (Section III-B).
	b := buildBlock(t, g, []*Tx{signedTx(t, id, "s1", 1), signedTx(t, id, "s1", 2)}, id)
	if err := b.VerifyStructure(nil); !errors.Is(err, ErrShareConflict) {
		t.Fatalf("want ErrShareConflict, got %v", err)
	}
}

func TestBlockAllowsEmptyShareIDs(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	t1 := &Tx{Contract: "c", Fn: "f", Nonce: 1}
	t1.Sign(id)
	t2 := &Tx{Contract: "c", Fn: "f", Nonce: 2}
	t2.Sign(id)
	b := buildBlock(t, g, []*Tx{t1, t2}, id)
	if err := b.VerifyStructure(nil); err != nil {
		t.Fatalf("empty share IDs must not conflict: %v", err)
	}
}

func TestBlockRejectsBadTxSig(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	tx := signedTx(t, id, "s1", 1)
	b := buildBlock(t, g, []*Tx{tx}, id)
	tx.Sig[0] ^= 1
	b.Header.TxRoot = b.ComputeTxRoot() // keep root honest; sig is broken
	if err := b.VerifyStructure(nil); err == nil {
		t.Fatal("bad tx signature accepted")
	}
}

// TestVerifyStructureSkipsOnlySignatures: the caller's "already checked"
// predicate skips exactly the signature checks it names; the tx root and
// the one-tx-per-share rule still hold every transaction.
func TestVerifyStructureSkipsOnlySignatures(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	good, bad := signedTx(t, id, "s1", 1), signedTx(t, id, "s2", 2)
	bad.Sig[0] ^= 1
	b := buildBlock(t, g, []*Tx{good, bad}, id)
	var asked []*Tx
	only := func(skip *Tx) func(*Tx) bool {
		asked = asked[:0]
		return func(tx *Tx) bool {
			asked = append(asked, tx)
			return tx == skip
		}
	}
	if err := b.VerifyStructure(only(bad)); err != nil {
		t.Fatalf("skipping the bad signature: %v", err)
	}
	if len(asked) != 2 {
		t.Fatalf("predicate consulted %d times for 2 transactions", len(asked))
	}
	if err := b.VerifyStructure(only(good)); !errors.Is(err, ErrTxBadSig) {
		t.Fatalf("bad signature not named by the predicate: want ErrTxBadSig, got %v", err)
	}

	all := func(*Tx) bool { return true }
	b.Header.TxRoot[0] ^= 1
	if err := b.VerifyStructure(all); !errors.Is(err, ErrBadTxRoot) {
		t.Fatalf("tx root with every signature skipped: want ErrBadTxRoot, got %v", err)
	}
	conflict := buildBlock(t, g, []*Tx{signedTx(t, id, "s1", 1), signedTx(t, id, "s1", 2)}, id)
	if err := conflict.VerifyStructure(all); !errors.Is(err, ErrShareConflict) {
		t.Fatalf("share conflict with every signature skipped: want ErrShareConflict, got %v", err)
	}
}

func TestGenesisDeterministicPerNetwork(t *testing.T) {
	if Genesis("a").Hash() != Genesis("a").Hash() {
		t.Fatal("genesis not deterministic")
	}
	if Genesis("a").Hash() == Genesis("b").Hash() {
		t.Fatal("different networks share genesis")
	}
}

func TestStoreAddAndHead(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	b1 := buildBlock(t, g, nil, id)
	changed, err := s.Add(b1, nil)
	if err != nil || !changed {
		t.Fatalf("Add = %v, %v", changed, err)
	}
	if s.Head().Hash() != b1.Hash() || s.Height() != 1 {
		t.Fatal("head not advanced")
	}
}

func TestStoreRejectsDuplicate(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	b1 := buildBlock(t, g, nil, id)
	if _, err := s.Add(b1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(b1, nil); !errors.Is(err, ErrDuplicateBlock) {
		t.Fatalf("want ErrDuplicateBlock, got %v", err)
	}
}

func TestStoreRejectsOrphan(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	orphan := &Block{Header: Header{Height: 5, PrevHash: merkle.Hash{1, 2, 3}, Proposer: id.Address()}}
	orphan.Header.TxRoot = orphan.ComputeTxRoot()
	if _, err := s.Add(orphan, nil); !errors.Is(err, ErrBadLinkage) {
		t.Fatalf("want ErrBadLinkage, got %v", err)
	}
}

func TestStoreRejectsWrongHeight(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	b := buildBlock(t, g, nil, id)
	b.Header.Height = 7
	if _, err := s.Add(b, nil); !errors.Is(err, ErrBadLinkage) {
		t.Fatalf("want ErrBadLinkage, got %v", err)
	}
}

func TestStoreForkChoiceLongest(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	// Fork A: one block. Fork B: two blocks.
	a1 := buildBlock(t, g, nil, id)
	a1.Header.TimestampMicro = 1
	if _, err := s.Add(a1, nil); err != nil {
		t.Fatal(err)
	}
	b1 := buildBlock(t, g, nil, id)
	b1.Header.TimestampMicro = 2
	if _, err := s.Add(b1, nil); err != nil {
		t.Fatal(err)
	}
	b2 := buildBlock(t, b1, nil, id)
	changed, err := s.Add(b2, nil)
	if err != nil || !changed {
		t.Fatalf("Add b2 = %v, %v", changed, err)
	}
	if s.Head().Hash() != b2.Hash() {
		t.Fatal("longest fork not chosen")
	}
	mc := s.MainChain()
	if len(mc) != 3 || mc[1].Hash() != b1.Hash() {
		t.Fatal("main chain wrong")
	}
}

func TestStoreTieBreakDeterministic(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	a1 := buildBlock(t, g, nil, id)
	a1.Header.TimestampMicro = 1
	b1 := buildBlock(t, g, nil, id)
	b1.Header.TimestampMicro = 2

	// Whichever arrival order, the head must be the same (lowest hash).
	s1 := NewStore(g)
	_, _ = s1.Add(a1, nil)
	_, _ = s1.Add(b1, nil)
	s2 := NewStore(g)
	_, _ = s2.Add(b1, nil)
	_, _ = s2.Add(a1, nil)
	if s1.Head().Hash() != s2.Head().Hash() {
		t.Fatal("tie break depends on arrival order")
	}
}

func TestStoreAtHeight(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	b1 := buildBlock(t, g, nil, id)
	_, _ = s.Add(b1, nil)
	got, ok := s.AtHeight(1)
	if !ok || got.Hash() != b1.Hash() {
		t.Fatal("AtHeight wrong")
	}
	if _, ok := s.AtHeight(9); ok {
		t.Fatal("AtHeight beyond head should fail")
	}
}

func TestVerifyChain(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	prev := g
	for i := 0; i < 5; i++ {
		b := buildBlock(t, prev, []*Tx{signedTx(t, id, "", uint64(i))}, id)
		if _, err := s.Add(b, nil); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	if err := s.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyChainDetectsHeaderTampering: mutating a stored block's header
// in memory must surface in VerifyChain even though the block hash is
// memoized — the audit path recomputes from the header.
func TestVerifyChainDetectsHeaderTampering(t *testing.T) {
	id := identity.MustNew("a")
	g := Genesis("t")
	s := NewStore(g)
	prev := g
	for i := 0; i < 3; i++ {
		b := buildBlock(t, prev, []*Tx{signedTx(t, id, "", uint64(i))}, id)
		if _, err := s.Add(b, nil); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	mc := s.MainChain()
	mc[1].Header.TimestampMicro += 1_000_000 // forge a timestamp post-insertion
	if err := s.VerifyChain(); err == nil {
		t.Fatal("header tampering not detected")
	}
}
