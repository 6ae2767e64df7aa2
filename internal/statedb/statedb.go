// Package statedb implements the versioned key-value store backing smart
// contract state, in the style of Hyperledger Fabric's world state: every
// key carries the (block height, tx index) version that last wrote it,
// and a transaction's simulation commits its write set at that version.
// Blocks execute serially, so a write set always lands on the state its
// simulation read, and no read set is validated. The state lives on a
// persistent map (pmap): a clone or a simulation is one pointer copy.
package statedb

import (
	"crypto/rand"
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

// shapeSeed keys the map's tree priorities, drawn once per process.
// Root hashes leaves in key order and never the tree's shape, so stores
// need not agree on it; a secret seed keeps keys a registrant chooses
// (share IDs) from being ground into a degenerate tree.
var shapeSeed = pmap.NewSeed([]byte(rand.Text()))

// Store is the world state. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	data pmap.Map[entry]
}

// NewStore creates an empty world state.
func NewStore() *Store {
	return &Store{data: pmap.FromSortedSeeded[entry](shapeSeed, nil, nil)}
}

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

// Range calls fn for every key with the given prefix, in sorted key order,
// until fn returns false.
func (s *Store) Range(prefix string, fn func(key string, value []byte) bool) {
	s.snapshot().AscendPrefix(prefix, func(k string, e entry) bool {
		return fn(k, append([]byte(nil), e.value...))
	})
}

// Len returns the number of live keys.
func (s *Store) Len() int { return s.snapshot().Len() }

// Clone returns an independent copy of the state, versions included, so
// its Root equals the source's. It is O(1): the map is persistent, so
// the copy shares it until either side commits. A node executes each
// block on a clone of its published state and publishes the clone once
// the block's declared root checks out.
func (s *Store) Clone() *Store { return &Store{data: s.snapshot()} }

// Root computes a deterministic commitment to the full world state: the
// Merkle root over canonical key/value/version leaves in sorted key order.
// Nodes compare state roots after each block to confirm deterministic
// contract execution.
func (s *Store) Root() merkle.Hash {
	ls, _ := leaves(s.snapshot(), "")
	return merkle.Root(ls)
}

// leaves returns the canonical leaf of every key, in key order, and the
// position of key among them.
func leaves(m pmap.Map[entry], key string) (out [][]byte, idx int) {
	out = make([][]byte, 0, m.Len())
	m.Ascend(func(k string, e entry) bool {
		if k == key {
			idx = len(out)
		}
		out = append(out, appendStateLeaf(make([]byte, 0, len(k)+len(e.value)+32), k, e.value, e.version))
		return true
	})
	return out, idx
}

// WriteSet maps keys to new values; nil means delete.
type WriteSet map[string][]byte

// Sim is a transaction simulation: a private clone of the state that
// takes the transaction's writes as they are staged, so reads and ranges
// see them, while the store is untouched until the write set commits.
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

// Range iterates the keys under prefix, the simulation's own writes
// included, in sorted order.
func (sim *Sim) Range(prefix string, fn func(key string, value []byte) bool) {
	sim.state.Range(prefix, fn)
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
