package node

import (
	"medshare/internal/chain"
)

// mempool is a FIFO transaction pool with ID dedup. Selection additionally
// enforces the one-tx-per-share-per-block conflict rule; transactions left
// behind by that rule stay pooled for the next block, which is exactly the
// serialization behaviour the paper prescribes for concurrent updates to
// the same shared table.
//
// mempool is not self-locking; the Node serializes access under its mutex.
type mempool struct {
	order []string
	byID  map[string]*chain.Tx
}

func newMempool() *mempool {
	return &mempool{byID: make(map[string]*chain.Tx)}
}

// add inserts the tx unless already present; reports whether it was new.
func (m *mempool) add(tx *chain.Tx) bool {
	id := tx.IDString()
	if _, dup := m.byID[id]; dup {
		return false
	}
	m.byID[id] = tx
	m.order = append(m.order, id)
	return true
}

func (m *mempool) len() int { return len(m.byID) }

// has reports whether the tx with this ID is pooled.
func (m *mempool) has(id string) bool {
	_, ok := m.byID[id]
	return ok
}

// pick removes and returns up to max transactions in FIFO order, skipping
// (and keeping) any tx whose ShareID collides with one already picked, and
// dropping any tx rejected by keep (already committed elsewhere).
func (m *mempool) pick(max int, keep func(*chain.Tx) bool) []*chain.Tx {
	var picked []*chain.Tx
	usedShares := make(map[string]bool)
	var remaining []string
	for i, id := range m.order {
		tx, ok := m.byID[id]
		if !ok {
			continue
		}
		if !keep(tx) {
			delete(m.byID, id)
			continue
		}
		if len(picked) >= max {
			remaining = append(remaining, m.order[i:]...)
			break
		}
		if tx.ShareID != "" && usedShares[tx.ShareID] {
			remaining = append(remaining, id)
			continue
		}
		if tx.ShareID != "" {
			usedShares[tx.ShareID] = true
		}
		picked = append(picked, tx)
		delete(m.byID, id)
	}
	m.order = remaining
	return picked
}

// remove drops committed transactions (seen in a block from elsewhere).
func (m *mempool) remove(ids []string) {
	for _, id := range ids {
		delete(m.byID, id)
	}
	var remaining []string
	for _, id := range m.order {
		if _, ok := m.byID[id]; ok {
			remaining = append(remaining, id)
		}
	}
	m.order = remaining
}

// requeue returns transactions to the front of the pool (after a failed
// production attempt).
func (m *mempool) requeue(txs []*chain.Tx) {
	var front []string
	for _, tx := range txs {
		id := tx.IDString()
		if _, dup := m.byID[id]; dup {
			continue
		}
		m.byID[id] = tx
		front = append(front, id)
	}
	m.order = append(front, m.order...)
}
