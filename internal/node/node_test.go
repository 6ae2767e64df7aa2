package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/p2p"
)

// kvContract is a trivial contract for node-level tests.
type kvContract struct{}

func (kvContract) Name() string { return "kv" }

func (kvContract) Invoke(stub contract.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "set":
		stub.PutState("kv/"+string(args[0]), args[1])
		stub.EmitEvent("set", args[0])
		return nil, nil
	case "fail":
		return nil, fmt.Errorf("kv: deliberate failure")
	default:
		return nil, contract.ErrUnknownFunction
	}
}

func newTestNode(t *testing.T) *Node {
	t.Helper()
	id := identity.MustNew("node")
	n, err := New(Config{
		NetworkName:   "test",
		Identity:      id,
		Engine:        consensus.NewPoA(false, id.Address()),
		Registry:      contract.NewRegistry(kvContract{}, sharereg.New()),
		BlockInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	id := identity.MustNew("n")
	if _, err := New(Config{Identity: id, Registry: contract.NewRegistry()}); err == nil {
		t.Fatal("missing engine accepted")
	}
	if _, err := New(Config{Identity: id, Engine: consensus.NewPoA(true, id.Address())}); err == nil {
		t.Fatal("missing registry accepted")
	}
	if _, err := New(Config{Engine: consensus.NewPoA(true, id.Address()), Registry: contract.NewRegistry()}); err == nil {
		t.Fatal("missing identity accepted")
	}
}

func TestTxLifecycle(t *testing.T) {
	n := newTestNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.Start(ctx)
	defer n.Stop()

	tx := n.BuildTx("kv", "set", "", []byte("k"), []byte("v"))
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	rcpt, err := n.WaitTx(ctx, tx.IDString())
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.OK {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if v, _, ok := n.State().Get("kv/k"); !ok || string(v) != "v" {
		t.Fatal("state not applied")
	}
	if n.Store().Height() == 0 {
		t.Fatal("no block produced")
	}
	// Receipt is retrievable after the fact.
	if r2, ok := n.Receipt(tx.IDString()); !ok || !r2.OK {
		t.Fatal("receipt lookup failed")
	}
}

func TestFailedTxHasReceiptAndNoState(t *testing.T) {
	n := newTestNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.Start(ctx)
	defer n.Stop()

	tx := n.BuildTx("kv", "fail", "")
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	rcpt, err := n.WaitTx(ctx, tx.IDString())
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.OK || rcpt.Err == "" {
		t.Fatalf("receipt = %+v", rcpt)
	}
}

func TestSubmitRejectsUnsigned(t *testing.T) {
	n := newTestNode(t)
	if err := n.SubmitTx(&chain.Tx{Contract: "kv", Fn: "set"}); err == nil {
		t.Fatal("unsigned tx accepted")
	}
}

func TestReplayRejected(t *testing.T) {
	n := newTestNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.Start(ctx)
	defer n.Stop()

	tx := n.BuildTx("kv", "set", "", []byte("k"), []byte("v"))
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := n.WaitTx(ctx, tx.IDString()); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(tx); err == nil {
		t.Fatal("replayed tx accepted")
	}
}

func TestEventsDelivered(t *testing.T) {
	n := newTestNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, cancelSub := n.Subscribe(16)
	defer cancelSub()
	n.Start(ctx)
	defer n.Stop()

	tx := n.BuildTx("kv", "set", "", []byte("k"), []byte("v"))
	_ = n.SubmitTx(tx)
	if _, err := n.WaitTx(ctx, tx.IDString()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Contract != "kv" || ev.Name != "set" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

// TestWaitTxReturnsAfterItsEvents: when WaitTx returns, the block's
// events are already buffered on every earlier subscription, and a
// subscription taken afterwards receives none of them.
func TestWaitTxReturnsAfterItsEvents(t *testing.T) {
	n := newTestNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before, cancelBefore := n.Subscribe(16)
	defer cancelBefore()
	n.Start(ctx)
	defer n.Stop()

	tx := n.BuildTx("kv", "set", "", []byte("k"), []byte("v"))
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := n.WaitTx(ctx, tx.IDString()); err != nil {
		t.Fatal(err)
	}
	after, cancelAfter := n.Subscribe(16)
	defer cancelAfter()
	select {
	case ev := <-before:
		if ev.TxID != tx.IDString() {
			t.Fatalf("event = %+v", ev)
		}
	default:
		t.Fatal("WaitTx returned before its block's event was delivered")
	}
	select {
	case ev := <-after:
		t.Fatalf("a subscription taken after WaitTx received %+v", ev)
	default:
	}
}

func TestOneTxPerSharePerBlock(t *testing.T) {
	n := newTestNode(t)
	// Submit three txs on the same share plus one on another share, then
	// drive production manually and inspect block composition.
	var sameShare []*chain.Tx
	for i := 0; i < 3; i++ {
		tx := n.BuildTx("kv", "set", "shareA", []byte(fmt.Sprintf("a%d", i)), []byte("v"))
		sameShare = append(sameShare, tx)
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	other := n.BuildTx("kv", "set", "shareB", []byte("b"), []byte("v"))
	if err := n.SubmitTx(other); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := n.TryProduce(ctx); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
	}
	blocks := n.Store().MainChain()
	if len(blocks) != 4 { // genesis + 3
		t.Fatalf("blocks = %d", len(blocks))
	}
	for h, b := range blocks {
		if h == 0 {
			continue
		}
		shares := map[string]int{}
		for _, tx := range b.Txs {
			if tx.ShareID != "" {
				shares[tx.ShareID]++
			}
		}
		for s, c := range shares {
			if c > 1 {
				t.Fatalf("block %d carries %d txs on share %s", h, c, s)
			}
		}
	}
	// Block 1 should carry shareA(first) and shareB together.
	if len(blocks[1].Txs) != 2 {
		t.Fatalf("block 1 txs = %d, want 2 (one per share)", len(blocks[1].Txs))
	}
	// All four transactions committed in the end.
	for _, tx := range append(sameShare, other) {
		if _, ok := n.Receipt(tx.IDString()); !ok {
			t.Fatalf("tx %s never committed", tx.IDString()[:8])
		}
	}
}

func TestQueryReflectsState(t *testing.T) {
	n := newTestNode(t)
	ctx := context.Background()
	// Use the sharereg contract through the real pipeline.
	ra, _ := json.Marshal(sharereg.RegisterArgs{
		ID:        "s1",
		Peers:     []identity.Address{n.Address(), identity.MustNew("other").Address()},
		Authority: n.Address(),
		Columns:   []string{"c"},
		WritePerm: map[string][]identity.Address{"c": {n.Address()}},
	})
	tx := n.BuildTx(sharereg.ContractName, sharereg.FnRegister, "s1", ra)
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := n.TryProduce(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := n.Query(sharereg.ContractName, sharereg.FnGet, []byte("s1"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sharereg.DecodeMeta(out)
	if err != nil || m.ID != "s1" {
		t.Fatalf("meta = %v, %v", m, err)
	}
}

// TestEmptyBlocksPolicy: a producer with nothing pooled skips the round
// instead of sealing an empty block.
func TestEmptyBlocksPolicy(t *testing.T) {
	n := newTestNode(t)
	if err := n.TryProduce(context.Background()); err != errNothingToDo {
		t.Fatalf("want errNothingToDo, got %v", err)
	}
	if h := n.Store().Height(); h != 0 {
		t.Fatalf("height %d after an empty round", h)
	}
}

func TestMultiNodeGossipConvergence(t *testing.T) {
	mem := p2p.NewMemNetwork()
	reg := func() *contract.Registry { return contract.NewRegistry(kvContract{}) }
	ids := []*identity.Identity{identity.MustNew("n0"), identity.MustNew("n1"), identity.MustNew("n2")}
	addrs := []identity.Address{ids[0].Address(), ids[1].Address(), ids[2].Address()}

	var nodes []*Node
	for i, id := range ids {
		n, err := New(Config{
			NetworkName:   "multi",
			Identity:      id,
			Engine:        consensus.NewPoA(true, addrs...),
			Registry:      reg(),
			BlockInterval: 2 * time.Millisecond,
			Transport:     mem.Endpoint(fmt.Sprintf("node-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range nodes {
		n.Start(ctx)
		defer n.Stop()
	}

	// Submit through different nodes; all must converge.
	for i := 0; i < 6; i++ {
		n := nodes[i%3]
		tx := n.BuildTx("kv", "set", "", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		tx.Sign(ids[i%3])
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := n.WaitTx(ctx, tx.IDString()); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}

	// Wait until every node has all six keys and identical roots.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		allSame := true
		root0 := nodes[0].State().Root()
		for _, n := range nodes[1:] {
			if n.State().Root() != root0 {
				allSame = false
			}
		}
		count := 0
		nodes[0].State().Range("kv/", func(string, []byte) bool { count++; return true })
		if allSame && count == 6 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("nodes did not converge")
}

func TestRejectBlockWithWrongStateRoot(t *testing.T) {
	n := newTestNode(t)
	g := n.Store().MainChain()[0]
	tx := n.BuildTx("kv", "set", "", []byte("x"), []byte("y"))
	// block hand-crafts a sealed height-1 block; honest gives it the state
	// root its transactions produce, otherwise the root is wrong.
	block := func(honest bool, txs ...*chain.Tx) *chain.Block {
		b := &chain.Block{
			Header: chain.Header{
				Height:         1,
				PrevHash:       g.Hash(),
				TimestampMicro: time.Now().UnixMicro(),
			},
			Txs: txs,
		}
		b.Header.TxRoot = b.ComputeTxRoot()
		if honest {
			staged := n.State().Clone()
			contract.ExecuteBlock(n.cfg.Registry, staged, b)
			b.Header.StateRoot = staged.Root()
		} else {
			b.Header.StateRoot[0] = 0xde
		}
		if err := n.cfg.Engine.Seal(context.Background(), b, n.cfg.Identity); err != nil {
			t.Fatal(err)
		}
		return b
	}
	rootBefore := n.State().Root()
	reject := func(what string, b *chain.Block, want error) {
		t.Helper()
		err := n.ReceiveBlock(b)
		if err == nil || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("block with %s: got %v, want rejection (%v)", what, err, want)
		}
		if n.Store().Height() != 0 {
			t.Fatalf("block with %s extended the chain", what)
		}
		// The block ran on a staged clone: rejecting it is not a fault of
		// this node, whose published state is untouched and which keeps
		// producing.
		if n.State().Root() != rootBefore {
			t.Fatalf("rejected block with %s changed the published state", what)
		}
		if err := n.Poisoned(); err != nil {
			t.Fatalf("rejecting a block with %s poisoned the node: %v", what, err)
		}
	}
	reject("a wrong state root", block(false, tx), nil)

	// The same content under a broken signature: a different ID, so
	// nothing this node admitted vouches for it and it is checked in full
	// — both before and after the genuine transaction is pooled.
	forged := *tx
	forged.Sig = append([]byte(nil), tx.Sig...)
	forged.Sig[0] ^= 0xff
	reject("an unpooled transaction with a bad signature", block(true, &forged), chain.ErrTxBadSig)
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	reject("a pooled transaction's content under another signature", block(true, &forged), chain.ErrTxBadSig)

	if err := n.TryProduce(context.Background()); err != nil {
		t.Fatalf("node stopped producing after rejecting a bad block: %v", err)
	}
	if v, _, ok := n.State().Get("kv/x"); !ok || string(v) != "y" || n.Store().Height() != 1 {
		t.Fatal("node's own block was not applied")
	}
}

func TestMempoolHelpers(t *testing.T) {
	m := newMempool()
	id := identity.MustNew("s")
	mk := func(share string, nonce uint64) *chain.Tx {
		tx := &chain.Tx{Contract: "kv", Fn: "set", ShareID: share, Nonce: nonce}
		tx.Sign(id)
		return tx
	}
	t1, t2, t3 := mk("a", 1), mk("a", 2), mk("b", 3)
	if !m.add(t1) || !m.add(t2) || !m.add(t3) {
		t.Fatal("adds failed")
	}
	if m.add(t1) {
		t.Fatal("duplicate add succeeded")
	}
	if m.len() != 3 {
		t.Fatalf("len = %d", m.len())
	}
	picked := m.pick(10, func(*chain.Tx) bool { return true })
	if len(picked) != 2 { // t1 (share a) + t3 (share b); t2 deferred
		t.Fatalf("picked %d", len(picked))
	}
	if m.len() != 1 {
		t.Fatalf("left = %d", m.len())
	}
	picked = m.pick(10, func(*chain.Tx) bool { return true })
	if len(picked) != 1 || picked[0].IDString() != t2.IDString() {
		t.Fatal("deferred tx not picked next")
	}
	// requeue puts transactions back at the front.
	m.requeue([]*chain.Tx{t1})
	if m.len() != 1 {
		t.Fatal("requeue failed")
	}
	// remove drops by ID.
	m.remove([]string{t1.IDString()})
	if m.len() != 0 {
		t.Fatal("remove failed")
	}
}

func TestMempoolMaxPerBlock(t *testing.T) {
	m := newMempool()
	id := identity.MustNew("s")
	for i := 0; i < 10; i++ {
		tx := &chain.Tx{Contract: "kv", Fn: "set", Nonce: uint64(i)}
		tx.Sign(id)
		m.add(tx)
	}
	picked := m.pick(4, func(*chain.Tx) bool { return true })
	if len(picked) != 4 || m.len() != 6 {
		t.Fatalf("picked %d, left %d", len(picked), m.len())
	}
}
