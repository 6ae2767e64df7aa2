package node

import (
	"context"
	"testing"
	"time"

	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// buildPoWBlock mines one block on top of parent with the given txs,
// executing them against a clone of n's state to compute the state root.
func buildPoWBlock(t *testing.T, n *Node, parent *chain.Block, engine consensus.Engine, txs []*chain.Tx, ts int64) *chain.Block {
	t.Helper()
	b := &chain.Block{
		Header: chain.Header{
			Height:         parent.Header.Height + 1,
			PrevHash:       parent.Hash(),
			TimestampMicro: ts,
			Proposer:       n.Address(),
		},
		Txs: txs,
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	if err := engine.Prepare(&b.Header); err != nil {
		t.Fatal(err)
	}
	// Execute from genesis along the parent branch to compute the state
	// root for this block's chain. For the test's short forks we replay
	// from scratch on a fresh store.
	staging := freshReplay(t, n, parent)
	n.executeOn(staging, b)
	b.Header.StateRoot = staging.Root()
	if err := engine.Seal(context.Background(), b, n.cfg.Identity); err != nil {
		t.Fatal(err)
	}
	return b
}

// freshReplay executes the chain from genesis up to and including tip on
// a fresh state store.
func freshReplay(t *testing.T, n *Node, tip *chain.Block) *statedb.Store {
	t.Helper()
	st := statedb.NewStore()
	// Collect the branch from tip back to genesis.
	var branch []*chain.Block
	cur := tip
	for cur.Header.Height > 0 {
		branch = append([]*chain.Block{cur}, branch...)
		parent, ok := n.store.Get(cur.Header.PrevHash)
		if !ok {
			t.Fatalf("missing parent of %x", cur.Hash())
		}
		cur = parent
	}
	for _, b := range branch {
		n.executeOn(st, b)
	}
	return st
}

// TestPoWReorgRebuildsState drives an explicit fork: the node first
// adopts branch A (one block), then a longer branch B (two blocks)
// arrives and the node must reorganize and rebuild its state to B's.
func TestPoWReorgRebuildsState(t *testing.T) {
	id := identity.MustNew("miner")
	engine := consensus.NewPoW(4)
	n, err := New(Config{
		NetworkName: "reorg",
		Identity:    id,
		Engine:      engine,
		Registry:    contract.NewRegistry(kvContract{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis := n.Store().Genesis()

	txA := n.BuildTx("kv", "set", "", []byte("branch"), []byte("A"))
	txB1 := n.BuildTx("kv", "set", "", []byte("branch"), []byte("B"))
	txB2 := n.BuildTx("kv", "set", "", []byte("extra"), []byte("B2"))

	blockA := buildPoWBlock(t, n, genesis, engine, []*chain.Tx{txA}, 1)
	if err := n.ReceiveBlock(blockA); err != nil {
		t.Fatalf("adopting A: %v", err)
	}
	if v, _, _ := n.State().Get("kv/branch"); string(v) != "A" {
		t.Fatalf("state after A = %q", v)
	}

	// Competing branch B from genesis, two blocks long.
	blockB1 := buildPoWBlock(t, n, genesis, engine, []*chain.Tx{txB1}, 2)
	if err := n.ReceiveBlock(blockB1); err != nil {
		t.Fatalf("adding B1: %v", err)
	}
	// B1 alone ties with A at height 1; the head may or may not switch
	// (hash tiebreak), but state must match whichever head rules.
	blockB2 := buildPoWBlock(t, n, blockB1, engine, []*chain.Tx{txB2}, 3)
	if err := n.ReceiveBlock(blockB2); err != nil {
		t.Fatalf("adding B2: %v", err)
	}

	if n.Store().Head().Hash() != blockB2.Hash() {
		t.Fatal("longer branch not adopted")
	}
	if v, _, _ := n.State().Get("kv/branch"); string(v) != "B" {
		t.Fatalf("state after reorg = %q, want B", v)
	}
	if v, _, _ := n.State().Get("kv/extra"); string(v) != "B2" {
		t.Fatalf("B2 state missing, got %q", v)
	}
	if got := n.State().Root(); got != blockB2.Header.StateRoot {
		t.Fatal("rebuilt state root disagrees with adopted head")
	}
	// Transactions on the abandoned branch are no longer marked
	// committed; txA can re-enter the pool.
	if err := n.SubmitTx(txA); err != nil {
		t.Fatalf("orphaned tx rejected after reorg: %v", err)
	}
}

// TestPoWSideBranchIgnored: a shorter side branch must not disturb state.
func TestPoWSideBranchIgnored(t *testing.T) {
	id := identity.MustNew("miner")
	engine := consensus.NewPoW(4)
	n, err := New(Config{
		NetworkName: "side",
		Identity:    id,
		Engine:      engine,
		Registry:    contract.NewRegistry(kvContract{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis := n.Store().Genesis()

	main1 := buildPoWBlock(t, n, genesis, engine, []*chain.Tx{n.BuildTx("kv", "set", "", []byte("k"), []byte("main"))}, 1)
	if err := n.ReceiveBlock(main1); err != nil {
		t.Fatal(err)
	}
	main2 := buildPoWBlock(t, n, main1, engine, nil, 2)
	if err := n.ReceiveBlock(main2); err != nil {
		t.Fatal(err)
	}
	rootBefore := n.State().Root()

	side1 := buildPoWBlock(t, n, genesis, engine, []*chain.Tx{n.BuildTx("kv", "set", "", []byte("k"), []byte("side"))}, 3)
	if err := n.ReceiveBlock(side1); err != nil {
		t.Fatal(err)
	}
	if n.Store().Head().Hash() != main2.Hash() {
		t.Fatal("head moved to shorter branch")
	}
	if n.State().Root() != rootBefore {
		t.Fatal("side branch disturbed state")
	}
	if v, _, _ := n.State().Get("kv/k"); string(v) != "main" {
		t.Fatalf("state = %q", v)
	}
}

// TestPoAProduceLoopTiming sanity-checks the timer-driven loop: with
// ProduceEmptyBlocks on, height advances roughly once per interval.
func TestPoAProduceLoopTiming(t *testing.T) {
	id := identity.MustNew("n")
	n, err := New(Config{
		NetworkName:        "timing",
		Identity:           id,
		Engine:             consensus.NewPoA(false, id.Address()),
		Registry:           contract.NewRegistry(),
		BlockInterval:      5 * time.Millisecond,
		ProduceEmptyBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.Start(ctx)
	time.Sleep(60 * time.Millisecond)
	n.Stop()
	h := n.Store().Height()
	if h < 4 || h > 20 {
		t.Fatalf("height after ~60ms of 5ms blocks = %d", h)
	}
}
