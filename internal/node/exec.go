package node

import (
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/statedb"
	"medshare/internal/store"
)

// maxOrphans bounds the blocks parked for a missing parent; a full park
// is emptied, as its entries are waiting for parents that never came.
const maxOrphans = 64

// ReceiveBlock admits a block from gossip, the sync layer, or a test.
// Gossip from different peers is not ordered, so a block can overtake
// its parent: such a block is parked (one per parent) and admitted
// right after the parent is.
func (n *Node) ReceiveBlock(b *chain.Block) error {
	if err := n.cfg.Engine.VerifyHeader(&b.Header); err != nil {
		return err
	}
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	if !n.store.Has(b.Header.PrevHash) {
		if len(n.orphans) >= maxOrphans {
			clear(n.orphans)
		}
		n.orphans[b.Header.PrevHash] = b
		return fmt.Errorf("%w: parent %x not received yet", chain.ErrBadLinkage, b.Header.PrevHash[:6])
	}
	if err := n.commitBlock(b, nil, nil); err != nil {
		return err
	}
	n.adoptOrphans(b)
	return nil
}

// adoptOrphans admits the parked descendants of the just-committed
// block. The caller holds commitMu.
func (n *Node) adoptOrphans(b *chain.Block) {
	for {
		child, ok := n.orphans[b.Hash()]
		if !ok {
			return
		}
		delete(n.orphans, b.Hash())
		if n.commitBlock(child, nil, nil) != nil {
			return
		}
		b = child
	}
}

// commitBlock adds a block to the store and, if it extends (or
// reorganizes) the main chain, publishes its post-state, receipts and
// events. The caller holds commitMu. A locally produced block arrives
// with the state it was executed on and its receipts, used if it still
// extends the head; a received block that extends the head is executed
// here, once, on a clone of the published state, and rejected — nothing
// touched — when that does not reproduce its declared state root.
// Signatures are checked only on transactions this node never admitted
// (admittedSigs).
func (n *Node) commitBlock(b *chain.Block, staged *statedb.Store, receipts []contract.Receipt) error {
	if err := n.Poisoned(); err != nil {
		return err
	}
	sigChecked := n.admittedSigs(b, staged != nil)
	extends := b.Header.PrevHash == n.store.Head().Hash()
	if extends && staged == nil {
		staged = n.State().Clone()
		receipts = contract.ExecuteBlock(n.cfg.Registry, staged, b)
		if got := staged.Root(); got != b.Header.StateRoot {
			return fmt.Errorf("node: state root mismatch at height %d: got %x want %x",
				b.Header.Height, got[:6], b.Header.StateRoot[:6])
		}
	}
	headChanged, err := n.store.Add(b, sigChecked)
	if err != nil {
		return err
	}
	if n.cfg.Store != nil {
		// A write failure poisons the durable store (Commit keeps
		// returning an error) but the node stays live from memory; the
		// operator sees it on the next checkpoint attempt.
		_ = n.cfg.Store.Commit(func(bt *store.Batch) error {
			return bt.PutBlock(b)
		})
	}
	switch {
	case !headChanged:
		// Side branch; state untouched.
	case extends:
		n.publish(&headState{block: b, state: staged}, []*chain.Block{b}, [][]contract.Receipt{receipts})
	default:
		// Reorganization: rebuild the world state from genesis along the
		// new main chain. Receipts and events are re-derived; subscribers
		// may see events again (documented at-least-once delivery, like
		// Fabric). Side-branch blocks were stored unexecuted, so this is
		// where a bad state root on the winning branch surfaces — with
		// the head already switched there is no state to fall back to.
		if err := n.replayFromGenesis(); err != nil {
			n.poison(err)
			return err
		}
	}
	return nil
}

// admittedSigs is commitBlock's signature-skip predicate for Store.Add.
// The mempool holds only transactions whose signatures were checked at
// admission, and a block this node produced was picked from it, so
// neither is checked again; every other transaction is, and the check
// is counted. Membership is read once per block, under one n.mu.
func (n *Node) admittedSigs(b *chain.Block, produced bool) func(*chain.Tx) bool {
	if produced {
		return func(*chain.Tx) bool { return true }
	}
	pooled := make(map[*chain.Tx]bool, len(b.Txs))
	n.mu.Lock()
	for _, tx := range b.Txs {
		if n.mempool.has(tx.IDString()) {
			pooled[tx] = true
		}
	}
	n.mu.Unlock()
	return func(tx *chain.Tx) bool {
		if pooled[tx] {
			return true
		}
		n.sigChecks.Add(1) // VerifyStructure checks what is not skipped
		return false
	}
}

// replayFromGenesis re-derives state, replay protection, receipts and
// events from the whole main chain.
func (n *Node) replayFromGenesis() error {
	n.mu.Lock()
	n.committedTxs = make(map[string]bool)
	n.mu.Unlock()
	return n.replay(statedb.NewStore(), n.store.MainChain()[1:])
}

// replay executes the main chain's tail blocks on state, in place,
// checking every declared state root, then publishes the head with the
// state and the blocks' receipts and events; on a mismatch, nothing.
func (n *Node) replay(state *statedb.Store, blocks []*chain.Block) error {
	receipts := make([][]contract.Receipt, len(blocks))
	for i, b := range blocks {
		receipts[i] = contract.ExecuteBlock(n.cfg.Registry, state, b)
		if got := state.Root(); got != b.Header.StateRoot {
			return fmt.Errorf("node: replayed state root mismatch at height %d: got %x want %x",
				b.Header.Height, got[:6], b.Header.StateRoot[:6])
		}
	}
	n.publish(&headState{block: n.store.Head(), state: state}, blocks, receipts)
	return nil
}

// publish makes blocks, the main chain's newest, current. The caller
// holds commitMu. Under n.mu it records their receipts and replay
// protection, then publishes head (the last block with its post-state),
// then buffers their events on every subscription, and only then wakes
// waiters and BlockApplied. So a producer that reads head finds its
// transactions committed, every woken reader finds head, a subscriber
// woken by BlockApplied drains the blocks at once, and one that
// subscribes after WaitTx returns sees none of its block's events.
// Last, it kicks the producer if transactions are still pooled.
func (n *Node) publish(head *headState, blocks []*chain.Block, receipts [][]contract.Receipt) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var ids []string
	for i, b := range blocks {
		for j, tx := range b.Txs {
			id := tx.IDString()
			ids = append(ids, id)
			n.committedTxs[id] = true
			n.receipts[id] = receipts[i][j]
		}
	}
	n.mempool.remove(ids)
	n.head.Store(head)
	for _, rs := range receipts {
		for _, r := range rs {
			for _, ev := range r.Events {
				n.events.publish(ev)
			}
		}
	}
	for _, id := range ids {
		for _, ch := range n.txWaiters[id] {
			ch <- n.receipts[id]
		}
		delete(n.txWaiters, id)
	}
	close(n.applied)
	n.applied = make(chan struct{})
	// Turn handoff: what the block left pooled (a second transaction on
	// one share, or one gossiped here while another authority held the
	// turn) rides the next block now if that block is ours to produce.
	if n.mempool.len() > 0 {
		n.kick()
	}
}
