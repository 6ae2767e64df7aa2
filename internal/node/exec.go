package node

import (
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/statedb"
	"medshare/internal/store"
)

// executeOn runs every transaction of a block against the given state in
// place, committing each successful transaction's write set at its
// (height, index) version, and returns the receipts indexed by tx
// position. Failed transactions (contract error or MVCC conflict) commit
// nothing but still produce receipts.
func (n *Node) executeOn(state *statedb.Store, b *chain.Block) []contract.Receipt {
	receipts := make([]contract.Receipt, len(b.Txs))
	for i, tx := range b.Txs {
		rcpt := contract.Execute(n.cfg.Registry, state, tx, b.Header.Height, b.Header.TimestampMicro)
		if rcpt.OK {
			if err := state.Validate(rcpt.Reads); err != nil {
				rcpt.OK = false
				rcpt.Err = err.Error()
				rcpt.Events = nil
				rcpt.Writes = nil
			} else {
				state.Commit(rcpt.Writes, statedb.Version{Height: b.Header.Height, TxIndex: i})
			}
		}
		receipts[i] = rcpt
	}
	return receipts
}

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
		receipts = n.executeOn(staged, b)
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
		n.state.Store(staged)
		n.publish(b, receipts)
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

// replay executes blocks in order on state, in place, checking every
// declared state root, and only then publishes the state and the blocks'
// receipts and events; on a mismatch nothing is published.
func (n *Node) replay(state *statedb.Store, blocks []*chain.Block) error {
	receipts := make([][]contract.Receipt, len(blocks))
	for i, b := range blocks {
		receipts[i] = n.executeOn(state, b)
		if got := state.Root(); got != b.Header.StateRoot {
			return fmt.Errorf("node: replayed state root mismatch at height %d: got %x want %x",
				b.Header.Height, got[:6], b.Header.StateRoot[:6])
		}
	}
	n.state.Store(state)
	for i, b := range blocks {
		n.publish(b, receipts[i])
	}
	return nil
}

// publish records a main-chain block's receipts and replay protection,
// fulfils waiters, delivers the block's events and signals BlockApplied.
// The caller holds commitMu and has already stored the block's
// post-state, so every woken reader finds it. The events are buffered on
// every subscription before the signal, so a subscriber woken by
// BlockApplied drains the whole block at once.
func (n *Node) publish(b *chain.Block, receipts []contract.Receipt) {
	ids := make([]string, len(b.Txs))
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, tx := range b.Txs {
		id := tx.IDString()
		ids[i] = id
		n.committedTxs[id] = true
		n.receipts[id] = receipts[i]
		for _, ch := range n.txWaiters[id] {
			ch <- receipts[i]
		}
		delete(n.txWaiters, id)
	}
	n.mempool.remove(ids)
	for _, r := range receipts {
		for _, ev := range r.Events {
			n.events.publish(ev)
		}
	}
	close(n.applied)
	n.applied = make(chan struct{})
}
