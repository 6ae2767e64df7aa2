package node

import (
	"errors"
	"fmt"

	"medshare/internal/chain"
	"medshare/internal/statedb"
	"medshare/internal/store"
)

// recoverFromStore rebuilds the block tree and world state from the
// durable log. Every recovered artifact is verified before it is
// trusted: blocks re-pass structure and linkage checks through the
// normal Add path (every transaction signature included: nothing here
// was admitted through the mempool), an imported state checkpoint must
// hash to both its own recorded root and the main chain's header root
// at that height, and replayed blocks must reproduce their declared
// state roots. Any
// verification failure falls back to the next-cheaper strategy, ending
// at a full re-execution from genesis — recovery degrades in cost,
// never in correctness.
func (n *Node) recoverFromStore(s *store.Store) error {
	for _, b := range s.Blocks() {
		if b.Header.Height == 0 {
			continue // genesis is derived from NetworkName, never stored
		}
		if _, err := n.store.Add(b, nil); err != nil {
			// Duplicates cannot happen on a fresh tree, but a torn tail
			// can orphan a block whose parent group was lost; skipping it
			// leaves a consistent prefix, which data.sync heals later.
			if errors.Is(err, chain.ErrDuplicateBlock) || errors.Is(err, chain.ErrBadLinkage) {
				continue
			}
			return err
		}
	}
	mc := n.store.MainChain()

	// Fast path: import the clean-shutdown checkpoint when it still names
	// a main-chain block and its entries hash back to the recorded root.
	state, start := statedb.NewStore(), uint64(1)
	if cp, ok := s.State(); ok && cp.Height < uint64(len(mc)) {
		at := mc[cp.Height]
		if at.Hash() == cp.Head && at.Header.StateRoot == cp.Root {
			imported := statedb.NewStore()
			imported.Import(cp.Entries)
			if imported.Root() == cp.Root {
				state, start = imported, cp.Height+1
				n.mu.Lock()
				for _, b := range mc[:start] {
					for _, tx := range b.Txs {
						// Replay protection survives the restart even though
						// pre-checkpoint receipts are not retained.
						n.committedTxs[tx.IDString()] = true
					}
				}
				n.mu.Unlock()
			}
		}
	}

	if err := n.replay(state, mc[start:]); err != nil {
		// The checkpoint diverged; pay for a full re-execution from
		// genesis before giving up.
		if err2 := n.replayFromGenesis(); err2 != nil {
			return fmt.Errorf("full replay after checkpoint mismatch (%v): %w", err, err2)
		}
	}
	return nil
}
