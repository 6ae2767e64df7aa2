package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/store"
)

// countingContract counts its invocations: a block's execution is the
// only thing that invokes it, so the count is executions.
type countingContract struct{ calls *atomic.Int64 }

func (countingContract) Name() string { return "count" }

func (c countingContract) Invoke(stub contract.Stub, fn string, args [][]byte) error {
	c.calls.Add(1)
	stub.PutState("count/"+string(args[0]), args[1])
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockExecutedOncePerNode pins the single-pass commit: N one-tx
// blocks cost N contract executions on the producer (the staging run is
// the commit) and N on a follower (clone, execute, verify, publish).
func TestBlockExecutedOncePerNode(t *testing.T) {
	mem := p2p.NewMemNetwork()
	sealer := identity.MustNew("sealer")
	var calls [2]atomic.Int64
	mk := func(i int, id *identity.Identity) *Node {
		n, err := New(Config{
			NetworkName: "once",
			Identity:    id,
			Engine:      consensus.NewPoA(true, sealer.Address()),
			Registry:    contract.NewRegistry(countingContract{calls: &calls[i]}),
			Transport:   mem.Endpoint(fmt.Sprintf("n%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	producer, follower := mk(0, sealer), mk(1, identity.MustNew("follower"))

	const blocks = 8
	for i := 0; i < blocks; i++ {
		tx := producer.BuildTx("count", "put", "", []byte(fmt.Sprint(i)), []byte("v"))
		if err := producer.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := producer.TryProduce(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Memnet delivers each message on its own goroutine; a block that
		// overtook its parent would be dropped as unlinked.
		height := uint64(i + 1)
		waitFor(t, "follower to apply the block", func() bool { return follower.Store().Height() == height })
	}
	if follower.State().Root() != producer.State().Root() {
		t.Fatal("follower state differs from producer state")
	}
	for i, who := range []string{"producer", "follower"} {
		if got := calls[i].Load(); got != blocks {
			t.Errorf("%s executed %d transactions for %d one-tx blocks", who, got, blocks)
		}
	}
}

// TestTxSignatureCheckedOncePerNode: a transaction's signature is
// checked where it enters a node — submission or gossip — and the block
// that commits it is not re-checked on the sealer (it picked the
// transaction from its pool) or on the other nodes (they pooled it by
// gossip). Each node's count rises by exactly the transactions committed.
func TestTxSignatureCheckedOncePerNode(t *testing.T) {
	mem := p2p.NewMemNetwork()
	sid := identity.MustNew("sealer")
	nodes := make([]*Node, 3)
	for i := range nodes {
		id := sid
		if i > 0 {
			id = identity.MustNew(fmt.Sprintf("member%d", i))
		}
		n, err := New(Config{
			NetworkName: "sig-once",
			Identity:    id,
			Engine:      consensus.NewPoA(true, sid.Address()),
			Registry:    contract.NewRegistry(kvContract{}),
			Transport:   mem.Endpoint(fmt.Sprintf("n%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	const rounds, perRound = 6, 8
	for r := 1; r <= rounds; r++ {
		before := make([]uint64, len(nodes))
		for i, n := range nodes {
			before[i] = n.TxSigChecks()
		}
		// Every node takes a turn as the origin, the sealer included.
		origin := nodes[r%len(nodes)]
		txs := make([]*chain.Tx, perRound)
		for k := range txs {
			txs[k] = origin.BuildTx("kv", "set", fmt.Sprintf("share-%d", k), []byte(fmt.Sprintf("r%d-k%d", r, k)), []byte("v"))
		}
		if err := origin.SubmitTxBatch(txs); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the batch pooled on every node", func() bool {
			for _, n := range nodes {
				if n.PendingTxs() != perRound {
					return false
				}
			}
			return true
		})
		if err := nodes[0].TryProduce(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "every node at the round's height", func() bool {
			for _, n := range nodes {
				if n.Store().Height() != uint64(r) {
					return false
				}
			}
			return true
		})
		if got := len(nodes[0].Store().Head().Txs); got != perRound {
			t.Fatalf("round %d: block carries %d txs, want %d", r, got, perRound)
		}
		for i, n := range nodes {
			if got := n.TxSigChecks() - before[i]; got != perRound {
				t.Errorf("round %d: node %d checked %d signatures for %d committed transactions", r, i, got, perRound)
			}
		}
	}
}

// TestBatchSignatureCheckedOncePerNode: a batch signed once
// (chain.SignBatch) is one signature check on every node — at the
// origin's submission, at gossip admission elsewhere — and the block
// that commits it is checked on no node again. Each node's count rises
// by exactly one per batch.
func TestBatchSignatureCheckedOncePerNode(t *testing.T) {
	nodes := sigTestNodes(t, "batch-sig-once")
	const rounds, perRound = 6, 8
	for r := 1; r <= rounds; r++ {
		before := make([]uint64, len(nodes))
		for i, n := range nodes {
			before[i] = n.TxSigChecks()
		}
		origin := nodes[r%len(nodes)]
		txs := make([]*chain.Tx, perRound)
		for k := range txs {
			txs[k] = origin.BuildTx("kv", "set", fmt.Sprintf("share-%d", k), []byte(fmt.Sprintf("r%d-k%d", r, k)), []byte("v"))
		}
		chain.SignBatch(origin.cfg.Identity, txs)
		if err := origin.SubmitTxBatch(txs); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the batch pooled on every node", func() bool {
			for _, n := range nodes {
				if n.PendingTxs() != perRound {
					return false
				}
			}
			return true
		})
		if err := nodes[0].TryProduce(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "every node at the round's height", func() bool {
			for _, n := range nodes {
				if n.Store().Height() != uint64(r) {
					return false
				}
			}
			return true
		})
		if got := len(nodes[0].Store().Head().Txs); got != perRound {
			t.Fatalf("round %d: block carries %d txs, want %d", r, got, perRound)
		}
		for i, n := range nodes {
			if got := n.TxSigChecks() - before[i]; got != 1 {
				t.Errorf("round %d: node %d checked %d signatures for one batch of %d", r, i, got, perRound)
			}
		}
	}
}

// sigTestNodes is three nodes on one memnet, the first the sealer.
func sigTestNodes(t *testing.T, network string) []*Node {
	t.Helper()
	mem := p2p.NewMemNetwork()
	sid := identity.MustNew("sealer")
	nodes := make([]*Node, 3)
	for i := range nodes {
		id := sid
		if i > 0 {
			id = identity.MustNew(fmt.Sprintf("member%d", i))
		}
		n, err := New(Config{
			NetworkName: network,
			Identity:    id,
			Engine:      consensus.NewPoA(true, sid.Address()),
			Registry:    contract.NewRegistry(kvContract{}),
			Transport:   mem.Endpoint(fmt.Sprintf("n%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return nodes
}

// TestBlockOvertakingItsParentIsAdopted: blocks from different peers
// arrive on different connections, so a block can reach a node before
// its parent; it must be admitted once the parent is, or the node falls
// off the chain for good.
func TestBlockOvertakingItsParentIsAdopted(t *testing.T) {
	producer, follower := gossipPair(t)
	producer.cfg.Transport, follower.cfg.Transport = nil, nil // blocks are handed over below
	var blocks []*chain.Block
	for i := 0; i < 3; i++ {
		tx := producer.BuildTx("kv", "set", "", []byte(fmt.Sprint(i)), []byte("v"))
		if err := producer.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := producer.TryProduce(context.Background()); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, producer.Store().Head())
	}
	for _, i := range []int{2, 1} {
		if err := follower.ReceiveBlock(blocks[i]); err == nil {
			t.Fatalf("block %d admitted before its parent", i+1)
		}
	}
	if err := follower.ReceiveBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if follower.Store().Height() != 3 || follower.State().Root() != producer.State().Root() {
		t.Fatalf("follower at height %d after the missing parent arrived, want 3 with the producer's state",
			follower.Store().Height())
	}
}

// gossipPair is a sealing node and a validator on one memnet, with an
// idle retry far above the latencies the tests assert.
func gossipPair(t *testing.T) (sealer, validator *Node) {
	t.Helper()
	mem := p2p.NewMemNetwork()
	sid := identity.MustNew("sealer")
	mk := func(id *identity.Identity, ep string) *Node {
		n, err := New(Config{
			NetworkName:   "gossip",
			Identity:      id,
			Engine:        consensus.NewPoA(true, sid.Address()),
			Registry:      contract.NewRegistry(kvContract{}),
			BlockInterval: 200 * time.Millisecond,
			Transport:     mem.Endpoint(ep),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return mk(sid, "sealer"), mk(identity.MustNew("validator"), "validator")
}

// TestGossipedTxKicksProducer: a transaction (or batch) submitted on a
// non-sealing node reaches the sealer by gossip and must be produced at
// once, not after the idle block interval.
func TestGossipedTxKicksProducer(t *testing.T) {
	sealer, validator := gossipPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sealer.Start(ctx)
	defer sealer.Stop()
	validator.Start(ctx)
	defer validator.Stop()

	submit := map[string]func() []*chain.Tx{
		"tx": func() []*chain.Tx {
			tx := validator.BuildTx("kv", "set", "", []byte("one"), []byte("v"))
			if err := validator.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			return []*chain.Tx{tx}
		},
		"batch": func() []*chain.Tx {
			txs := []*chain.Tx{
				validator.BuildTx("kv", "set", "", []byte("b1"), []byte("v")),
				validator.BuildTx("kv", "set", "", []byte("b2"), []byte("v")),
			}
			if err := validator.SubmitTxBatch(txs); err != nil {
				t.Fatal(err)
			}
			return txs
		},
	}
	for name, fn := range submit {
		start := time.Now()
		for _, tx := range fn() {
			if _, err := validator.WaitTx(ctx, tx.IDString()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if d := time.Since(start); d >= sealer.cfg.BlockInterval/2 {
			t.Errorf("%s submitted on the validator committed after %v; want under %v (the sealer was not kicked)",
				name, d, sealer.cfg.BlockInterval/2)
		}
	}
}

// TestGossipBatchAdmitsGoodDropsBad: one forged signature in a gossiped
// batch must not cost the rest of the batch its admission.
func TestGossipBatchAdmitsGoodDropsBad(t *testing.T) {
	_, n := gossipPair(t)
	txs := []*chain.Tx{
		n.BuildTx("kv", "set", "", []byte("a"), []byte("v")),
		n.BuildTx("kv", "set", "", []byte("b"), []byte("v")),
		n.BuildTx("kv", "set", "", []byte("c"), []byte("v")),
	}
	txs[1].Sig[0] ^= 0xff
	payload := chain.AppendTxBatchBinary(nil, txs)
	n.handleGossip(p2p.Message{Kind: p2p.KindTxBatch, Payload: payload})
	if got := n.PendingTxs(); got != 2 {
		t.Fatalf("pooled %d of a batch with 2 valid transactions", got)
	}
	if len(n.kickCh) != 1 {
		t.Fatal("admitting gossiped transactions did not kick the producer")
	}
}

// TestDuplicateGossipDoesNotKick: gossip that admits nothing new — a
// transaction already pooled or already committed — must not wake the
// producer, nor have its signature checked again.
func TestDuplicateGossipDoesNotKick(t *testing.T) {
	n, _ := gossipPair(t)
	tx := n.BuildTx("kv", "set", "", []byte("k"), []byte("v"))
	msg := p2p.Message{Kind: p2p.KindTx, Payload: chain.AppendTxBinary(nil, tx)}

	n.handleGossip(msg)
	if len(n.kickCh) != 1 {
		t.Fatal("first delivery did not kick")
	}
	<-n.kickCh
	n.handleGossip(msg)
	if len(n.kickCh) != 0 {
		t.Fatal("re-delivery of a pooled transaction kicked the producer")
	}

	if err := n.TryProduce(context.Background()); err != nil {
		t.Fatal(err)
	}
	n.handleGossip(msg)
	if len(n.kickCh) != 0 || n.PendingTxs() != 0 {
		t.Fatalf("re-delivery of a committed transaction: kicked=%v pending=%d", len(n.kickCh) != 0, n.PendingTxs())
	}
	if got := n.TxSigChecks(); got != 1 {
		t.Fatalf("one transaction delivered three times and committed: %d signature checks, want 1", got)
	}
}

// TestPoisonedOnUnreproducibleBranch: a side branch is stored
// unexecuted, so a bad state root on it surfaces only when fork choice
// switches to it. The node must then stop with a sticky error — not
// panic, not keep serving a state that no longer matches its head.
func TestPoisonedOnUnreproducibleBranch(t *testing.T) {
	n := forkNode(t, "poison")
	g := n.Store().MainChain()[0]
	mkTx := func(k, v string) *chain.Tx { return n.BuildTx("kv", "set", "", []byte(k), []byte(v)) }

	a1 := buildBlock(t, n, g, []*chain.Tx{mkTx("branch", "A")}, 1000)
	if err := n.ReceiveBlock(a1); err != nil {
		t.Fatal(err)
	}
	rootA := n.State().Root()

	// The authority seals a second height-1 block, whose declared state
	// root its transactions do not produce. If it loses the height-1
	// tie-break it is stored as a side branch and a second block makes
	// the branch win; if it wins, the switch happens at once.
	b1 := buildBlock(t, n, g, []*chain.Tx{mkTx("branch", "B")}, 2000)
	b1.Header.StateRoot[0] ^= 0xff
	if err := n.cfg.Engine.Seal(context.Background(), b1, n.cfg.Identity); err != nil {
		t.Fatal(err)
	}
	err := n.ReceiveBlock(b1)
	if n.Store().Head() == a1 {
		if err != nil || n.Poisoned() != nil {
			t.Fatalf("storing a side-branch block: err %v, poisoned %v", err, n.Poisoned())
		}
		b2 := buildBlock(t, n, b1, []*chain.Tx{mkTx("extra", "B2")}, 3000)
		err = n.ReceiveBlock(b2)
	}
	if err == nil {
		t.Fatal("switching to a branch with an unreproducible state root reported no error")
	}
	if n.Poisoned() == nil {
		t.Fatal("node not poisoned")
	}
	if n.State().Root() != rootA {
		t.Fatal("poisoned node published a state from the bad branch")
	}
	if err := n.SubmitTx(mkTx("after", "x")); err != nil {
		t.Fatal(err)
	}
	if err := n.TryProduce(context.Background()); err == nil {
		t.Fatal("poisoned node produced a block")
	}
}

// TestMultiAuthorityTCP is the configuration cmd/medshared derives:
// every participant a strict-PoA authority, TCP gossip, an fsyncing
// store, a 10 ms idle retry. Every authority
// submits concurrently; the three must agree on height and state root
// with every transaction committed exactly once and no node poisoned.
func TestMultiAuthorityTCP(t *testing.T) {
	const authorities, perNode = 3, 200
	ids := make([]*identity.Identity, authorities)
	addrs := make([]identity.Address, authorities)
	tcps := make([]*p2p.TCPTransport, authorities)
	for i := range ids {
		ids[i] = identity.MustNew(fmt.Sprintf("auth%d", i))
		addrs[i] = ids[i].Address()
		tcp, err := p2p.NewTCPTransport(fmt.Sprintf("auth%d", i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		tcps[i] = tcp
	}
	for i, tcp := range tcps {
		for j, other := range tcps {
			if i != j {
				tcp.AddPeer(other.Name(), other.Addr())
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nodes := make([]*Node, authorities)
	for i := range nodes {
		st, err := store.Open(store.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		nodes[i], err = New(Config{
			NetworkName:   "multi-authority",
			Identity:      ids[i],
			Engine:        consensus.NewPoA(true, addrs...),
			Registry:      contract.NewRegistry(kvContract{}),
			BlockInterval: 10 * time.Millisecond,
			Transport:     tcps[i],
			Store:         st,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		n.Start(ctx)
		defer n.Stop()
	}

	var wg sync.WaitGroup
	submitted := make([][]string, authorities)
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				tx := n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("n%d-k%d", i, k)), []byte("v"))
				if err := n.SubmitTx(tx); err != nil {
					t.Errorf("node %d submit %d: %v", i, k, err)
					return
				}
				submitted[i] = append(submitted[i], tx.IDString())
			}
			for _, id := range submitted[i] {
				if r, err := n.WaitTx(ctx, id); err != nil || !r.OK {
					t.Errorf("node %d tx %s: receipt %+v, err %v", i, id[:8], r, err)
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	if t.Failed() {
		for i, n := range nodes {
			t.Logf("node %d: height %d, pending %d, poisoned %v", i, n.Store().Height(), n.PendingTxs(), n.Poisoned())
		}
		return
	}

	waitFor(t, "equal height and state root on all authorities", func() bool {
		h, root := nodes[0].Store().Height(), nodes[0].State().Root()
		for _, n := range nodes {
			if n.Store().Height() != h || n.State().Root() != root || n.PendingTxs() != 0 {
				return false
			}
		}
		return true
	})
	for i, n := range nodes {
		if err := n.Poisoned(); err != nil {
			t.Errorf("node %d poisoned: %v", i, err)
		}
		seen := make(map[string]int)
		for _, b := range n.Store().MainChain() {
			for _, tx := range b.Txs {
				seen[tx.IDString()]++
			}
		}
		if len(seen) != authorities*perNode {
			t.Errorf("node %d: main chain holds %d distinct transactions, want %d", i, len(seen), authorities*perNode)
		}
		for _, ids := range submitted {
			for _, id := range ids {
				if seen[id] != 1 {
					t.Errorf("node %d: tx %s committed %d times", i, id[:8], seen[id])
				}
			}
		}
	}
}

// hookEngine is the wrapped engine with a hook before Prepare and Seal;
// a hook's error is the call's.
type hookEngine struct {
	consensus.Engine
	beforePrepare, beforeSeal func() error
}

func (e *hookEngine) Prepare(h *chain.Header) error {
	if e.beforePrepare != nil {
		if err := e.beforePrepare(); err != nil {
			return err
		}
	}
	return e.Engine.Prepare(h)
}

func (e *hookEngine) Seal(ctx context.Context, b *chain.Block, id *identity.Identity) error {
	if e.beforeSeal != nil {
		if err := e.beforeSeal(); err != nil {
			return err
		}
	}
	return e.Engine.Seal(ctx, b, id)
}

// TestAbandonedProductionRequeuesItsTxs: the transactions TryProduce
// picked leave the mempool, so every return that abandons the block —
// Prepare failing, Seal failing, the head moving while sealing — must
// put them back, or a transaction submitted to this node alone is lost.
// One that a competing block committed meanwhile stays out.
func TestAbandonedProductionRequeuesItsTxs(t *testing.T) {
	aid, bid := identity.MustNew("a"), identity.MustNew("b")
	eng := &hookEngine{Engine: consensus.NewPoA(false, aid.Address(), bid.Address())}
	mk := func(id *identity.Identity, e consensus.Engine) *Node {
		n, err := New(Config{NetworkName: "requeue", Identity: id, Engine: e, Registry: contract.NewRegistry(kvContract{})})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(aid, eng), mk(bid, eng.Engine)
	ctx := context.Background()

	mine := a.BuildTx("kv", "set", "", []byte("mine"), []byte("v"))
	both := a.BuildTx("kv", "set", "", []byte("both"), []byte("v"))
	for _, tx := range []*chain.Tx{mine, both} {
		if err := a.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SubmitTx(both); err != nil {
		t.Fatal(err)
	}

	boom := fmt.Errorf("engine says no")
	eng.beforePrepare = func() error { return boom }
	if err := a.TryProduce(ctx); err != boom || a.PendingTxs() != 2 {
		t.Fatalf("Prepare failure: err %v, %d txs pooled, want both back", err, a.PendingTxs())
	}
	eng.beforePrepare = nil
	eng.beforeSeal = func() error { return boom }
	if err := a.TryProduce(ctx); err != boom || a.PendingTxs() != 2 {
		t.Fatalf("Seal failure: err %v, %d txs pooled, want both back", err, a.PendingTxs())
	}

	// Seal blocks while b's block, carrying one of the two, lands on a.
	sealing, release := make(chan struct{}), make(chan struct{})
	eng.beforeSeal = func() error {
		close(sealing)
		<-release
		return nil
	}
	produced := make(chan error, 1)
	go func() { produced <- a.TryProduce(ctx) }()
	<-sealing
	if err := b.TryProduce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.ReceiveBlock(b.Store().Head()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-produced; err != errStaleProduce {
		t.Fatalf("production over a moved head returned %v, want errStaleProduce", err)
	}
	if got := a.PendingTxs(); got != 1 {
		t.Fatalf("%d txs pooled after the stale production, want the uncommitted one only", got)
	}

	eng.beforeSeal = nil
	if err := a.TryProduce(ctx); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for _, tx := range []*chain.Tx{mine, both} {
		if rcpt, err := a.WaitTx(wctx, tx.IDString()); err != nil || !rcpt.OK {
			t.Fatalf("tx %s: receipt %+v, err %v", tx.IDString()[:8], rcpt, err)
		}
	}
	if h := a.Store().Height(); h != 2 || len(a.Store().Head().Txs) != 1 {
		t.Fatalf("height %d, head carries %d txs; want the requeued tx alone in block 2", h, len(a.Store().Head().Txs))
	}
}

// stoppedClock is a clock whose timers never fire, so every block a
// node running on it produces comes from a kick.
type stoppedClock struct{}

func (stoppedClock) Now() time.Time                       { return time.Now() }
func (stoppedClock) After(time.Duration) <-chan time.Time { return nil }

// TestKickProducesWithoutATimer pins the one production rule: a
// submission produces a block with no timer in between, and the
// transactions that arrive while that block is being sealed all ride
// the next one block.
func TestKickProducesWithoutATimer(t *testing.T) {
	id := identity.MustNew("kick")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sealing, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	eng := &hookEngine{
		Engine: consensus.NewPoA(true, id.Address()),
		beforeSeal: func() error {
			hold.Do(func() {
				close(sealing)
				select {
				case <-release:
				case <-ctx.Done():
				}
			})
			return nil
		},
	}
	n, err := New(Config{
		NetworkName: "kick",
		Identity:    id,
		Engine:      eng,
		Registry:    contract.NewRegistry(kvContract{}),
		Clock:       stoppedClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(ctx)
	defer n.Stop()

	txs := []*chain.Tx{n.BuildTx("kv", "set", "", []byte("first"), []byte("v"))}
	if err := n.SubmitTx(txs[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sealing:
	case <-ctx.Done():
		t.Fatal("a submission did not start a block on a clock that never fires")
	}
	const meanwhile = 4
	for i := 0; i < meanwhile; i++ {
		tx := n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	close(release)
	for _, tx := range txs {
		if r, err := n.WaitTx(ctx, tx.IDString()); err != nil || !r.OK {
			t.Fatalf("tx %s: receipt %+v, err %v", tx.IDString()[:8], r, err)
		}
	}
	if h, got := n.Store().Height(), len(n.Store().Head().Txs); h != 2 || got != meanwhile {
		t.Fatalf("height %d with %d txs in the head; want the %d submitted during block 1 together in block 2",
			h, got, meanwhile)
	}
}

// TestTurnHandoffCommitsLeftovers: three strict-PoA authorities on a
// clock that never fires. Two transactions on one share cannot share a
// block, so the block that commits the first leaves the second pooled;
// the authority whose turn comes next must produce it when that block
// lands, not wait for a timer.
func TestTurnHandoffCommitsLeftovers(t *testing.T) {
	mem := p2p.NewMemNetwork()
	ids := []*identity.Identity{identity.MustNew("h0"), identity.MustNew("h1"), identity.MustNew("h2")}
	addrs := []identity.Address{ids[0].Address(), ids[1].Address(), ids[2].Address()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var nodes []*Node
	for i, id := range ids {
		n, err := New(Config{
			NetworkName: "handoff",
			Identity:    id,
			Engine:      consensus.NewPoA(true, addrs...),
			Registry:    contract.NewRegistry(kvContract{}),
			Clock:       stoppedClock{},
			Transport:   mem.Endpoint(fmt.Sprintf("node-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	// The authority of height 1 starts last, so the authority of height
	// 2 has spent its submission's kick (not its turn) before block 1
	// exists: only the handoff on block 1's arrival produces block 2.
	nodes[0].Start(ctx)
	nodes[2].Start(ctx)
	n := nodes[2]
	txs := []*chain.Tx{
		n.BuildTx("kv", "set", "s", []byte("a"), []byte("v")),
		n.BuildTx("kv", "set", "s", []byte("b"), []byte("v")),
	}
	if err := n.SubmitTxBatch(txs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the batch pooled on the first proposer and the kick spent", func() bool {
		return nodes[1].PendingTxs() == len(txs) && len(n.kickCh) == 0
	})
	nodes[1].Start(ctx)
	for _, tx := range txs {
		if r, err := n.WaitTx(ctx, tx.IDString()); err != nil || !r.OK {
			t.Fatalf("tx %s: receipt %+v, err %v (height %d, pending %d)",
				tx.IDString()[:8], r, err, n.Store().Height(), n.PendingTxs())
		}
	}
	for h, b := range n.Store().MainChain()[1:] {
		if want := addrs[(h+1)%len(addrs)]; b.Header.Proposer != want || len(b.Txs) != 1 {
			t.Fatalf("block %d: proposer %s with %d txs, want %s with one", h+1, b.Header.Proposer.Short(), len(b.Txs), want.Short())
		}
	}
}
