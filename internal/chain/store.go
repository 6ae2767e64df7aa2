package chain

import (
	"bytes"
	"fmt"
	"sync"

	"medshare/internal/merkle"
)

// Store keeps every known block in a block tree and tracks the best chain
// under longest-chain fork choice (ties broken by lowest block hash, so
// all nodes converge deterministically). Strict PoA still forks: an
// authority that crashes after gossiping a block but before persisting
// it re-seals a different block at the same height on restart, and
// relaxed PoA lets several authorities seal one height. Fork choice
// resolves both.
type Store struct {
	mu     sync.RWMutex
	byHash map[merkle.Hash]*Block
	// children maps a block hash to the hashes of its known children.
	children map[merkle.Hash][]merkle.Hash
	head     *Block
}

// NewStore creates a store seeded with the genesis block.
func NewStore(genesis *Block) *Store {
	s := &Store{
		byHash:   make(map[merkle.Hash]*Block),
		children: make(map[merkle.Hash][]merkle.Hash),
		head:     genesis,
	}
	s.byHash[genesis.Hash()] = genesis
	return s
}

// Head returns the tip of the best chain.
func (s *Store) Head() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// Height returns the best-chain height.
func (s *Store) Height() uint64 { return s.Head().Header.Height }

// Get returns the block with the given hash.
func (s *Store) Get(h merkle.Hash) (*Block, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.byHash[h]
	return b, ok
}

// Has reports whether the block is known.
func (s *Store) Has(h merkle.Hash) bool {
	_, ok := s.Get(h)
	return ok
}

// Add inserts a block. The parent must already be known, the height must
// be parent+1, and the block structure must verify (sigChecked as in
// Block.VerifyStructure; nil checks every signature). Add reports whether
// the best head changed (callers then rebuild contract state if the new
// head is not a simple extension).
func (s *Store) Add(b *Block, sigChecked func(group []*Tx) bool) (headChanged bool, err error) {
	if err := b.VerifyStructure(sigChecked); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := b.Hash()
	if _, dup := s.byHash[h]; dup {
		return false, ErrDuplicateBlock
	}
	parent, ok := s.byHash[b.Header.PrevHash]
	if !ok {
		return false, fmt.Errorf("%w: parent %x", ErrBadLinkage, b.Header.PrevHash[:6])
	}
	if b.Header.Height != parent.Header.Height+1 {
		return false, fmt.Errorf("%w: height %d after parent height %d", ErrBadLinkage, b.Header.Height, parent.Header.Height)
	}
	s.byHash[h] = b
	s.children[b.Header.PrevHash] = append(s.children[b.Header.PrevHash], h)

	oldHead := s.head
	if better(b, s.head) {
		s.head = b
	}
	return s.head != oldHead, nil
}

// better implements the fork choice: higher wins; equal height breaks ties
// by lower hash.
func better(a, b *Block) bool {
	if a.Header.Height != b.Header.Height {
		return a.Header.Height > b.Header.Height
	}
	ah, bh := a.Hash(), b.Hash()
	return bytes.Compare(ah[:], bh[:]) < 0
}

// MainChain returns the blocks from genesis to the best head, inclusive.
func (s *Store) MainChain() []*Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Block, s.head.Header.Height+1)
	cur := s.head
	for {
		out[cur.Header.Height] = cur
		if cur.Header.Height == 0 {
			break
		}
		parent, ok := s.byHash[cur.Header.PrevHash]
		if !ok {
			// Unreachable: Add never stores a block with an unknown parent.
			panic("chain: broken linkage in main chain")
		}
		cur = parent
	}
	return out
}

// AtHeight returns the main-chain block at the given height.
func (s *Store) AtHeight(h uint64) (*Block, bool) {
	mc := s.MainChain()
	if h >= uint64(len(mc)) {
		return nil, false
	}
	return mc[h], true
}

// VerifyChain re-validates the whole main chain: linkage, structure
// (every transaction signature included), and monotone heights. The
// audit layer uses it for tamper detection, so
// linkage deliberately bypasses the memoized block hash and recomputes
// from the header — a header mutated after insertion must surface here,
// not be masked by a stale cache.
func (s *Store) VerifyChain() error {
	mc := s.MainChain()
	for i, b := range mc {
		if i == 0 {
			continue
		}
		if b.Header.PrevHash != mc[i-1].Header.Hash() {
			return fmt.Errorf("%w: block %d does not link to block %d", ErrBadLinkage, i, i-1)
		}
		if err := b.VerifyStructure(nil); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	return nil
}
