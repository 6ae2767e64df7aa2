package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"medshare/internal/audit"
	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/store"
)

// testDurableConfig is the durable-test node configuration, sharing a
// deterministic identity so restarts agree on the PoA set.
func testDurableConfig(s *store.Store) Config {
	id := identity.FromSeed("durable-node", "durable-node-seed")
	return Config{
		NetworkName:   "durable-test",
		Identity:      id,
		Engine:        consensus.NewPoA(false, id.Address()),
		Registry:      contract.NewRegistry(kvContract{}, sharereg.New()),
		BlockInterval: 2 * time.Millisecond,
		Store:         s,
	}
}

// newDurableNode builds a node against the given durable store.
func newDurableNode(t *testing.T, s *store.Store) *Node {
	t.Helper()
	n, err := New(testDurableConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// commitKVs drives count committed blocks of one kv/set each through
// TryProduce (no timer), returning after all have landed.
func commitKVs(t *testing.T, n *Node, start, count int) {
	t.Helper()
	ctx := context.Background()
	for i := start; i < start+count; i++ {
		tx := n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)))
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := n.TryProduce(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNodeCleanStopReplaysNothing is the shutdown-path regression test:
// a node stopped gracefully leaves a clean-shutdown marker and a state
// checkpoint at the head, so the next open has zero tail bytes to
// replay and the restarted node imports state instead of re-executing.
func TestNodeCleanStopReplaysNothing(t *testing.T) {
	fs := store.NewMemFS()
	s, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, s)
	commitKVs(t, n, 0, 8)
	head, root := n.Store().Head(), n.State().Root()
	n.Stop() // writes checkpoint + clean marker
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if !st.CleanShutdown {
		t.Fatal("clean stop did not leave a clean-shutdown marker")
	}
	if st.TailBytes != 0 || st.TornTail {
		t.Fatalf("clean stop left %d tail bytes (torn=%v); want zero replay", st.TailBytes, st.TornTail)
	}
	cp, ok := s2.State()
	if !ok {
		t.Fatal("clean stop wrote no state checkpoint")
	}
	if cp.Height != head.Header.Height || cp.Head != head.Hash() || cp.Root != root {
		t.Fatal("checkpoint does not describe the final head")
	}

	n2 := newDurableNode(t, s2)
	gotHead, wantHead := n2.Store().Head().Hash(), head.Hash()
	if gotHead != wantHead {
		t.Fatalf("recovered head %x, want %x", gotHead[:6], wantHead[:6])
	}
	if n2.State().Root() != root {
		t.Fatal("recovered state root diverges")
	}
	if err := n2.Store().VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// The recovered node keeps working and persists new blocks.
	commitKVs(t, n2, 100, 2)
	if n2.Store().Height() != head.Header.Height+2 {
		t.Fatal("recovered node did not extend the chain")
	}
	n2.Stop()
}

// TestNodeCrashRecovery kills the store mid-flight (no checkpoint, no
// clean marker) and requires the restarted node to re-execute the
// persisted chain to the identical state root, with replay protection
// intact.
func TestNodeCrashRecovery(t *testing.T) {
	fs := store.NewMemFS()
	s, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, s)
	commitKVs(t, n, 0, 10)
	head, root := n.Store().Head(), n.State().Root()
	var committed []string
	for _, b := range n.Store().MainChain() {
		for _, tx := range b.Txs {
			committed = append(committed, tx.IDString())
		}
	}
	// Simulated kill -9: no Stop, no Close — reopen from the raw bytes.
	s2, err := store.Open(store.Options{FS: fs.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.State(); ok {
		t.Fatal("crash should not have left a state checkpoint")
	}

	n2 := newDurableNode(t, s2)
	gotHead, wantHead := n2.Store().Head().Hash(), head.Hash()
	if gotHead != wantHead {
		t.Fatalf("recovered head %x, want %x", gotHead[:6], wantHead[:6])
	}
	if n2.State().Root() != root {
		t.Fatal("re-executed state root diverges from pre-crash root")
	}
	for _, id := range committed {
		if err := n2.SubmitTx(n.mustTx(t, id)); err == nil {
			t.Fatalf("replayed tx %s accepted after recovery", id[:8])
		}
	}
	n2.Stop()
}

// TestLargeArgumentPersistsAndGossips: a transaction whose argument is
// over a mebibyte commits, survives a restart from the store, and
// reaches a peer as a tx, as a batch and inside a block.
func TestLargeArgumentPersistsAndGossips(t *testing.T) {
	big := bytes.Repeat([]byte{0x5a}, 1<<20+1)

	fs := store.NewMemFS()
	s, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, s)
	if err := n.SubmitTx(n.BuildTx("kv", "set", "", []byte("big"), big)); err != nil {
		t.Fatal(err)
	}
	if err := n.TryProduce(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(store.Options{FS: fs.Clone()})
	if err != nil {
		t.Fatalf("reopen over a block with a large argument: %v", err)
	}
	defer s2.Close()
	n2 := newDurableNode(t, s2)
	defer n2.Stop()
	if v, _, ok := n2.State().Get("kv/big"); !ok || !bytes.Equal(v, big) {
		t.Fatal("large argument lost across a restart")
	}
	n.Stop()

	sealer, validator := gossipPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sealer.Start(ctx)
	defer sealer.Stop()
	validator.Start(ctx)
	defer validator.Stop()
	one := validator.BuildTx("kv", "set", "", []byte("one"), big)
	if err := validator.SubmitTx(one); err != nil {
		t.Fatal(err)
	}
	batch := []*chain.Tx{validator.BuildTx("kv", "set", "", []byte("b1"), big)}
	if err := validator.SubmitTxBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, tx := range append(batch, one) {
		// The validator seals nothing: its receipt means the sealer got
		// the tx by gossip and the validator got the block back.
		if _, err := validator.WaitTx(ctx, tx.IDString()); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"kv/one", "kv/b1"} {
		if v, _, ok := validator.State().Get(k); !ok || !bytes.Equal(v, big) {
			t.Fatalf("%s: large argument lost in gossip", k)
		}
	}
}

// mustTx digs a committed transaction back out of the chain by ID (test
// helper for replay-protection checks).
func (n *Node) mustTx(t *testing.T, id string) *chain.Tx {
	t.Helper()
	for _, b := range n.Store().MainChain() {
		for _, tx := range b.Txs {
			if tx.IDString() == id {
				return tx
			}
		}
	}
	t.Fatalf("tx %s not found on chain", id[:8])
	return nil
}

// TestFlippedTxSigFailsRecoveryAndVerifyChain: skipping the signatures
// a node admitted itself stops at the live path. One flipped signature
// byte in a persisted block (tx root recomputed and header re-sealed, so
// the signature is the block's only fault) fails recovery, and the same
// flip in a stored block fails Store.VerifyChain and the auditor: none
// of the three has a pool to vouch for anything.
func TestFlippedTxSigFailsRecoveryAndVerifyChain(t *testing.T) {
	flippedSigFails(t, func(n *Node) { commitKVs(t, n, 0, 3) }, func(b *chain.Block) {
		b.Txs[0].Sig[0] ^= 0x01
	})
}

// TestFlippedBatchSigFailsRecoveryAndVerifyChain is the batch form: the
// head block carries one batch signed once, and its signature byte is
// flipped in every member, so the batch is whole and only its one
// signature is wrong.
func TestFlippedBatchSigFailsRecoveryAndVerifyChain(t *testing.T) {
	flippedSigFails(t, func(n *Node) {
		commitKVs(t, n, 0, 2)
		txs := make([]*chain.Tx, 4)
		for i := range txs {
			txs[i] = n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("batch-%d", i)), []byte("v"))
		}
		chain.SignBatch(n.cfg.Identity, txs)
		if err := n.SubmitTxBatch(txs); err != nil {
			t.Fatal(err)
		}
		if err := n.TryProduce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := len(n.Store().Head().Txs); got != len(txs) {
			t.Fatalf("head block carries %d txs, want the batch of %d", got, len(txs))
		}
	}, func(b *chain.Block) {
		for _, tx := range b.Txs {
			tx.Sig[0] ^= 0x01
		}
	})
}

// flippedSigFails commits blocks on a durable node with commit, then
// requires recovery, VerifyChain and the auditor to refuse the head
// block once flipSig has broken a signature in it.
func flippedSigFails(t *testing.T, commit func(*Node), flipSig func(*chain.Block)) {
	s, err := store.Open(store.Options{FS: store.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, s)
	commit(n)
	flip := func(b *chain.Block) {
		flipSig(b)
		b.Header.TxRoot = b.ComputeTxRoot()
		b.ResetHashCache()
	}

	mc := n.Store().MainChain()
	raw, err := json.Marshal(mc[len(mc)-1])
	if err != nil {
		t.Fatal(err)
	}
	var bad chain.Block
	if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatal(err)
	}
	flip(&bad)
	if err := n.cfg.Engine.Seal(context.Background(), &bad, n.cfg.Identity); err != nil {
		t.Fatal(err)
	}
	fs := store.NewMemFS()
	w, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Commit(func(bt *store.Batch) error {
		for _, b := range append(mc[1:len(mc)-1], &bad) {
			if err := bt.PutBlock(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	if len(img.Blocks()) != len(mc)-1 {
		t.Fatalf("image holds %d blocks, want %d", len(img.Blocks()), len(mc)-1)
	}
	if _, err := New(testDurableConfig(img)); !errors.Is(err, chain.ErrTxBadSig) {
		t.Fatalf("recovering a persisted block with a flipped tx signature: got %v, want ErrTxBadSig", err)
	}

	flip(n.Store().Head())
	if err := n.Store().VerifyChain(); !errors.Is(err, chain.ErrTxBadSig) {
		t.Fatalf("VerifyChain over a flipped tx signature: got %v, want ErrTxBadSig", err)
	}
	if err := audit.New(n.Store(), n.Registry()).VerifyIntegrity(); !errors.Is(err, chain.ErrTxBadSig) {
		t.Fatalf("auditor over a flipped tx signature: got %v, want ErrTxBadSig", err)
	}
}

// TestNodeRecoveryRejectsTamperedCheckpoint corrupts the checkpoint's
// entries after the fact; recovery must detect the root mismatch and
// fall back to full re-execution, still landing on the correct root.
func TestNodeRecoveryRejectsTamperedCheckpoint(t *testing.T) {
	fs := store.NewMemFS()
	s, err := store.Open(store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, s)
	commitKVs(t, n, 0, 6)
	root := n.State().Root()
	// Hand-write a checkpoint whose entries do not hash to its claimed
	// root (claims the real head/root, carries garbage state).
	head := n.Store().Head()
	err = s.Commit(func(b *store.Batch) error {
		return b.PutState(store.StateCheckpoint{
			Height:  head.Header.Height,
			Head:    head.Hash(),
			Root:    head.Header.StateRoot,
			Entries: nil, // empty state cannot hash to a non-empty root
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(store.Options{FS: fs.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n2 := newDurableNode(t, s2)
	if n2.State().Root() != root {
		t.Fatal("recovery trusted a checkpoint whose entries do not match its root")
	}
	n2.Stop()
}
