package node

import (
	"encoding/json"

	"medshare/internal/chain"
	"medshare/internal/p2p"
)

// gossipTx broadcasts a transaction to the network.
func (n *Node) gossipTx(tx *chain.Tx) {
	if n.cfg.Transport == nil {
		return
	}
	payload, err := json.Marshal(tx)
	if err != nil {
		return
	}
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindTx, Payload: payload})
}

// gossipTxBatch broadcasts a group of transactions in one message,
// amortizing the per-broadcast overhead across the whole batch.
func (n *Node) gossipTxBatch(txs []*chain.Tx) {
	if n.cfg.Transport == nil {
		return
	}
	payload, err := json.Marshal(txs)
	if err != nil {
		return
	}
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindTxBatch, Payload: payload})
}

// gossipBlock broadcasts a sealed block to the network.
func (n *Node) gossipBlock(b *chain.Block) {
	if n.cfg.Transport == nil {
		return
	}
	payload, err := json.Marshal(b)
	if err != nil {
		return
	}
	_ = n.cfg.Transport.Broadcast(p2p.Message{Kind: p2p.KindBlock, Payload: payload})
}

// handleGossip processes incoming network messages. Transaction
// signatures are verified before n.mu is taken, and newly admitted
// transactions kick the producer exactly like a local submission, so a
// validator-origin request or ack rides the group-commit window instead
// of waiting out BlockInterval.
func (n *Node) handleGossip(msg p2p.Message) {
	switch msg.Kind {
	case p2p.KindTx:
		var tx chain.Tx
		if err := json.Unmarshal(msg.Payload, &tx); err != nil {
			return
		}
		n.admitVerified([]*chain.Tx{&tx})
	case p2p.KindTxBatch:
		var txs []*chain.Tx
		if err := json.Unmarshal(msg.Payload, &txs); err != nil {
			return
		}
		n.admitVerified(txs)
	case p2p.KindBlock:
		var b chain.Block
		if err := json.Unmarshal(msg.Payload, &b); err != nil {
			return
		}
		// Errors (duplicate, parent not received yet, bad proof) are
		// expected under gossip and simply ignored.
		_ = n.ReceiveBlock(&b)
	}
}

// admitVerified admits the gossiped transactions whose signatures
// verify, dropping the rest. One already committed or pooled here is
// dropped before its check: gossip redelivers, and a transaction with
// the same ID has the same verdict.
func (n *Node) admitVerified(txs []*chain.Tx) {
	unseen := txs[:0]
	n.mu.Lock()
	for _, tx := range txs {
		if tx == nil {
			continue
		}
		if id := tx.IDString(); !n.committedTxs[id] && !n.mempool.has(id) {
			unseen = append(unseen, tx)
		}
	}
	n.mu.Unlock()
	good := unseen[:0]
	for _, tx := range unseen {
		if n.verifyTx(tx) == nil {
			good = append(good, tx)
		}
	}
	n.admit(good)
}
