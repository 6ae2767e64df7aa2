package node

import (
	"medshare/internal/chain"
	"medshare/internal/p2p"
)

// gossipTx broadcasts a transaction to the network.
func (n *Node) gossipTx(tx *chain.Tx) {
	if n.cfg.Transport == nil {
		return
	}
	payload := chain.AppendTxBinary(nil, tx)
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindTx, Payload: payload})
}

// gossipTxBatch broadcasts a group of transactions in one message,
// amortizing the per-broadcast overhead across the whole batch.
func (n *Node) gossipTxBatch(txs []*chain.Tx) {
	if n.cfg.Transport == nil {
		return
	}
	payload := chain.AppendTxBatchBinary(nil, txs)
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindTxBatch, Payload: payload})
}

// gossipBlock broadcasts a sealed block to the network.
func (n *Node) gossipBlock(b *chain.Block) {
	if n.cfg.Transport == nil {
		return
	}
	payload := chain.AppendBlockBinary(nil, b)
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindBlock, Payload: payload})
}

// handleGossip processes incoming network messages. Transaction
// signatures are verified before n.mu is taken, and newly admitted
// transactions kick the producer exactly like a local submission, so a
// validator-origin request or ack is produced at once instead of after
// BlockInterval.
func (n *Node) handleGossip(msg p2p.Message) {
	switch msg.Kind {
	case p2p.KindTx:
		tx, err := chain.DecodeTx(msg.Payload)
		if err != nil {
			return
		}
		n.admitVerified([]*chain.Tx{tx})
	case p2p.KindTxBatch:
		txs, err := chain.DecodeTxBatch(msg.Payload)
		if err != nil {
			return
		}
		n.admitVerified(txs)
	case p2p.KindBlock:
		b, err := chain.DecodeBlock(msg.Payload)
		if err != nil {
			return
		}
		// Errors (duplicate, parent not received yet, bad proof) are
		// expected under gossip and simply ignored.
		_ = n.ReceiveBlock(b)
	}
}

// admitVerified admits the gossiped signature groups that verify,
// dropping the rest. A group every member of which is already committed
// or pooled here is dropped before its check: gossip redelivers, and a
// transaction with the same ID has the same verdict.
func (n *Node) admitVerified(txs []*chain.Tx) {
	var good [][]*chain.Tx
	_ = chain.VerifyGroups(txs, n.seen, func(group []*chain.Tx, err error) {
		n.sigChecks.Add(1)
		if err == nil {
			good = append(good, group)
		}
	})
	n.admit(good)
}

// seen reports whether every member of the group is committed or pooled.
func (n *Node) seen(group []*chain.Tx) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return all(group, func(tx *chain.Tx) bool {
		id := tx.IDString()
		return n.committedTxs[id] || n.mempool.has(id)
	})
}
