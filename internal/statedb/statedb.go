// Package statedb implements the versioned key-value store backing smart
// contract state, in the style of Hyperledger Fabric's world state: every
// key carries the (block height, tx index) version that last wrote it,
// and a transaction's simulation commits its write set at that version.
// Blocks execute serially, so a write set always lands on the state its
// simulation read, and no read set is validated. The state lives on a
// persistent map (pmap): a clone or a simulation is one pointer copy.
package statedb

import (
	"sync"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

// Version identifies the transaction that last wrote a key.
type Version struct {
	// Height is the block height.
	Height uint64 `json:"height"`
	// TxIndex is the position of the transaction within the block.
	TxIndex int `json:"txIndex"`
}

// entry is a stored value with its version.
type entry struct {
	value   []byte
	version Version
}

// Store is the world state. It is safe for concurrent use.
//
// The map takes pmap's unseeded priorities (SHA-256 of the key), so every
// node builds the same tree shape, and Root, which hashes that shape,
// agrees across nodes. The shape is public, so a registrant could grind
// share IDs toward a deep path; but a path of depth d needs d registered
// shares, so the worst case is O(n) per write: no worse than a flat tree
// over every key, which costs O(n) on every block.
type Store struct {
	mu   sync.RWMutex
	data pmap.Map[entry]
}

// NewStore creates an empty world state.
func NewStore() *Store { return &Store{} }

// snapshot returns the current map; the map itself is immutable.
func (s *Store) snapshot() pmap.Map[entry] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// Get returns the current value and version of key.
func (s *Store) Get(key string) ([]byte, Version, bool) {
	e, ok := s.snapshot().Get(key)
	if !ok {
		return nil, Version{}, false
	}
	return append([]byte(nil), e.value...), e.version, true
}

// Len returns the number of live keys.
func (s *Store) Len() int { return s.snapshot().Len() }

// Clone returns an independent copy of the state, versions included, so
// its Root equals the source's. It is O(1): the map is persistent, so
// the copy shares it until either side commits. A node executes each
// block on a clone of its published state and publishes the clone once
// the block's declared root checks out.
func (s *Store) Clone() *Store { return &Store{data: s.snapshot()} }

// Root is the deterministic commitment to the full world state: the
// Merkle digest of the state map, whose entries are the canonical
// key/value/version leaves (stateLeaf). Nodes compare state roots after
// each block to confirm deterministic contract execution. Path copying
// leaves every untouched subtree's digest cached, so after a block the
// root rehashes only the paths its writes copied.
func (s *Store) Root() merkle.Hash { return s.snapshot().MerkleRoot(stateLeaf) }

// WriteSet maps keys to new values; nil means delete.
type WriteSet map[string][]byte

// Sim is a transaction simulation: a private clone of the state that
// takes the transaction's writes as they are staged, so reads see them,
// while the store is untouched until the write set commits.
type Sim struct {
	state  *Store
	writes WriteSet
}

// NewSim starts a simulation against the current state.
func (s *Store) NewSim() *Sim {
	return &Sim{state: s.Clone(), writes: make(WriteSet)}
}

// Get reads a key, the simulation's own writes included.
func (sim *Sim) Get(key string) ([]byte, bool) {
	v, _, ok := sim.state.Get(key)
	return v, ok
}

// Put stages a write. An empty value stages a deletion: the write set
// cannot tell the two apart.
func (sim *Sim) Put(key string, value []byte) {
	if len(value) == 0 {
		sim.Del(key)
		return
	}
	v := append([]byte(nil), value...)
	sim.writes[key] = v
	sim.state.data, _ = sim.state.data.Set(key, entry{value: v})
}

// Del stages a deletion.
func (sim *Sim) Del(key string) {
	sim.writes[key] = nil
	sim.state.data, _ = sim.state.data.Delete(key)
}

// Writes returns the staged write set.
func (sim *Sim) Writes() WriteSet { return sim.writes }

// Commit applies a write set at the given version.
func (s *Store) Commit(writes WriteSet, ver Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range writes {
		if v == nil {
			s.data, _ = s.data.Delete(k)
			continue
		}
		s.data, _ = s.data.Set(k, entry{value: append([]byte(nil), v...), version: ver})
	}
}
