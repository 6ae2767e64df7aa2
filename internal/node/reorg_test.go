package node

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// forkNode is a node whose strict-PoA authority set is itself alone, so
// its identity may seal any height — including one it has sealed before,
// as an authority that crashed between gossiping a block and persisting
// it does on restart.
func forkNode(t *testing.T, network string) *Node {
	t.Helper()
	id := identity.MustNew("authority")
	n, err := New(Config{
		NetworkName: network,
		Identity:    id,
		Engine:      consensus.NewPoA(true, id.Address()),
		Registry:    contract.NewRegistry(kvContract{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// buildBlock seals one block on top of parent with the given txs under
// n's engine and identity, executing them against a replay of parent's
// branch to compute the state root.
func buildBlock(t *testing.T, n *Node, parent *chain.Block, txs []*chain.Tx, ts int64) *chain.Block {
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
	if err := n.cfg.Engine.Prepare(&b.Header); err != nil {
		t.Fatal(err)
	}
	staging := freshReplay(t, n, parent)
	contract.ExecuteBlock(n.cfg.Registry, staging, b)
	b.Header.StateRoot = staging.Root()
	if err := n.cfg.Engine.Seal(context.Background(), b, n.cfg.Identity); err != nil {
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
		contract.ExecuteBlock(n.cfg.Registry, st, b)
	}
	return st
}

// TestReorgRebuildsState drives an explicit fork: the node first adopts
// branch A (one block), then the authority's competing branch B (two
// blocks, the first at A's height) arrives and the node must reorganize
// and rebuild its state to B's.
func TestReorgRebuildsState(t *testing.T) {
	n := forkNode(t, "reorg")
	genesis := n.Store().MainChain()[0]

	txA := n.BuildTx("kv", "set", "", []byte("branch"), []byte("A"))
	txB1 := n.BuildTx("kv", "set", "", []byte("branch"), []byte("B"))
	txB2 := n.BuildTx("kv", "set", "", []byte("extra"), []byte("B2"))

	blockA := buildBlock(t, n, genesis, []*chain.Tx{txA}, 1)
	if err := n.ReceiveBlock(blockA); err != nil {
		t.Fatalf("adopting A: %v", err)
	}
	if v, _, _ := n.State().Get("kv/branch"); string(v) != "A" {
		t.Fatalf("state after A = %q", v)
	}

	// Competing branch B from genesis, two blocks long.
	blockB1 := buildBlock(t, n, genesis, []*chain.Tx{txB1}, 2)
	if err := n.ReceiveBlock(blockB1); err != nil {
		t.Fatalf("adding B1: %v", err)
	}
	// B1 alone ties with A at height 1; the head may or may not switch
	// (hash tiebreak), but state must match whichever head rules.
	if head := n.Store().Head(); n.State().Root() != head.Header.StateRoot {
		t.Fatal("state disagrees with the height-1 head")
	}
	blockB2 := buildBlock(t, n, blockB1, []*chain.Tx{txB2}, 3)
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

// TestHeadPairsBlockWithItsState reads Node.Head() on other goroutines
// while blocks commit one by one and while a longer branch makes the
// node rebuild its state: every pair read must be a block with its own
// post-state, whose transactions already have receipts (a producer
// reading the head must find them committed, or it picks them again).
func TestHeadPairsBlockWithItsState(t *testing.T) {
	n := forkNode(t, "head-pair")
	genesis := n.Store().MainChain()[0]
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, st := n.Head()
				if got := st.Root(); got != b.Header.StateRoot {
					errs <- fmt.Errorf("head at height %d paired with state root %x, want %x",
						b.Header.Height, got[:6], b.Header.StateRoot[:6])
					return
				}
				for _, tx := range b.Txs {
					if _, ok := n.Receipt(tx.IDString()); !ok {
						errs <- fmt.Errorf("head at height %d published before its receipts", b.Header.Height)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	branch := func(name string, blocks int, ts int64) *chain.Block {
		tip := genesis
		for i := 0; i < blocks; i++ {
			tx := n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("%s%d", name, i)), []byte(name))
			tip = buildBlock(t, n, tip, []*chain.Tx{tx}, ts+int64(i))
			if err := n.ReceiveBlock(tip); err != nil {
				t.Fatalf("block %d of branch %s: %v", i, name, err)
			}
		}
		return tip
	}
	branch("a", 12, 1)
	tipB := branch("b", 13, 100)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if b, st := n.Head(); b != tipB || st.Root() != tipB.Header.StateRoot {
		t.Fatalf("head at height %d after the reorg, want branch b's tip at %d", b.Header.Height, tipB.Header.Height)
	}
}

// TestSideBranchIgnored: a shorter side branch must not disturb state.
func TestSideBranchIgnored(t *testing.T) {
	n := forkNode(t, "side")
	genesis := n.Store().MainChain()[0]

	main1 := buildBlock(t, n, genesis, []*chain.Tx{n.BuildTx("kv", "set", "", []byte("k"), []byte("main"))}, 1)
	if err := n.ReceiveBlock(main1); err != nil {
		t.Fatal(err)
	}
	main2 := buildBlock(t, n, main1, nil, 2)
	if err := n.ReceiveBlock(main2); err != nil {
		t.Fatal(err)
	}
	rootBefore := n.State().Root()

	side1 := buildBlock(t, n, genesis, []*chain.Tx{n.BuildTx("kv", "set", "", []byte("k"), []byte("side"))}, 3)
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
