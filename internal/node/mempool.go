package node

import (
	"medshare/internal/chain"
)

// mempool is a FIFO pool of signature groups — a transaction signed
// alone, or a whole batch signed once (chain.SignBatch) — with ID dedup.
// A group is picked, deferred and dropped as a unit, so a block holds
// whole batches. Selection additionally enforces the one-tx-per-share-
// per-block conflict rule; groups left behind by that rule stay pooled
// for the next block, which is exactly the serialization behaviour the
// paper prescribes for concurrent updates to the same shared table.
//
// mempool is not self-locking; the Node serializes access under its mutex.
type mempool struct {
	order [][]*chain.Tx
	byID  map[string]*chain.Tx
}

func newMempool() *mempool {
	return &mempool{byID: make(map[string]*chain.Tx)}
}

// add appends the group unless a member is already pooled; reports
// whether it was new. (A valid group's members are pooled together or
// not at all: a member's ID pins its batch's signature, which pins the
// batch.)
func (m *mempool) add(group []*chain.Tx) bool {
	for _, tx := range group {
		if m.has(tx.IDString()) {
			return false
		}
	}
	for _, tx := range group {
		m.byID[tx.IDString()] = tx
	}
	m.order = append(m.order, group)
	return true
}

func (m *mempool) len() int { return len(m.byID) }

// has reports whether the tx with this ID is pooled.
func (m *mempool) has(id string) bool {
	_, ok := m.byID[id]
	return ok
}

// whole reports whether every member of a pooled group is still pooled.
func (m *mempool) whole(group []*chain.Tx) bool {
	for _, tx := range group {
		if !m.has(tx.IDString()) {
			return false
		}
	}
	return true
}

// drop removes what is left of a group from the pool.
func (m *mempool) drop(group []*chain.Tx) {
	for _, tx := range group {
		delete(m.byID, tx.IDString())
	}
}

// pick removes and returns groups of up to max transactions in all, in
// FIFO order. A group with a ShareID that collides with one already
// picked or deferred is deferred (kept, in order), so no transaction
// overtakes an earlier one on its share; a group with a member rejected
// by keep (already committed elsewhere) can never be whole in a block
// and is dropped. Picking stops at the first group that does not fit.
func (m *mempool) pick(max int, keep func(*chain.Tx) bool) [][]*chain.Tx {
	var picked, remaining [][]*chain.Tx
	n := 0
	usedShares := make(map[string]bool)
	for i, group := range m.order {
		if !all(group, keep) {
			m.drop(group)
			continue
		}
		if n+len(group) > max {
			remaining = append(remaining, m.order[i:]...)
			break
		}
		conflict := false
		for _, tx := range group {
			if tx.ShareID != "" {
				conflict = conflict || usedShares[tx.ShareID]
				usedShares[tx.ShareID] = true
			}
		}
		if conflict {
			remaining = append(remaining, group)
			continue
		}
		picked = append(picked, group)
		n += len(group)
		m.drop(group)
	}
	m.order = remaining
	return picked
}

// all reports whether keep holds for every member of the group.
func all(group []*chain.Tx, keep func(*chain.Tx) bool) bool {
	for _, tx := range group {
		if !keep(tx) {
			return false
		}
	}
	return true
}

// remove drops committed transactions (seen in a block from elsewhere),
// and with them the rest of any group they belong to.
func (m *mempool) remove(ids []string) {
	for _, id := range ids {
		delete(m.byID, id)
	}
	remaining := m.order[:0]
	for _, group := range m.order {
		if m.whole(group) {
			remaining = append(remaining, group)
		} else {
			m.drop(group)
		}
	}
	clear(m.order[len(remaining):])
	m.order = remaining
}

// requeue returns groups to the front of the pool (after a failed
// production attempt), in their order.
func (m *mempool) requeue(groups [][]*chain.Tx) {
	rest := m.order
	m.order = nil
	for _, group := range groups {
		m.add(group)
	}
	m.order = append(m.order, rest...)
}
