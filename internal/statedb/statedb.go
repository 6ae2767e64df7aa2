// Package statedb implements the versioned key-value store backing smart
// contract state, in the style of Hyperledger Fabric's world state: every
// key carries the (block height, tx index) version that last wrote it,
// transactions execute against simulations that capture read and write
// sets, and commit-time MVCC validation rejects transactions whose reads
// were invalidated by earlier transactions in the same or a previous
// block.
package statedb

import (
	"encoding/binary"
	"errors"
	"maps"
	"sort"
	"strings"
	"sync"

	"medshare/internal/merkle"
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
type Store struct {
	mu   sync.RWMutex
	data map[string]entry
}

// NewStore creates an empty world state.
func NewStore() *Store {
	return &Store{data: make(map[string]entry)}
}

// Get returns the current value and version of key.
func (s *Store) Get(key string) ([]byte, Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok {
		return nil, Version{}, false
	}
	return append([]byte(nil), e.value...), e.version, true
}

// Range calls fn for every key with the given prefix, in sorted key order,
// until fn returns false.
func (s *Store) Range(prefix string, fn func(key string, value []byte) bool) {
	s.mu.RLock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		s.mu.RLock()
		e, ok := s.data[k]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn(k, append([]byte(nil), e.value...)) {
			return
		}
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Clone returns an independent copy of the state, versions included, so
// its Root equals the source's. Stored values are never mutated in
// place (Commit stores copies, Get returns copies), so the copy shares
// them. A node executes each block on a clone of its published state
// and publishes the clone once the block's declared root checks out.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{data: maps.Clone(s.data)}
}

// Root computes a deterministic commitment to the full world state: the
// Merkle root over canonical key/value/version leaves in sorted key order.
// Nodes compare state roots after each block to confirm deterministic
// contract execution.
func (s *Store) Root() merkle.Hash {
	s.mu.RLock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	leaves := make([][]byte, 0, len(keys))
	for _, k := range keys {
		e := s.data[k]
		leaf := make([]byte, 0, len(k)+len(e.value)+20)
		leaf = binary.BigEndian.AppendUint64(leaf, uint64(len(k)))
		leaf = append(leaf, k...)
		leaf = binary.BigEndian.AppendUint64(leaf, uint64(len(e.value)))
		leaf = append(leaf, e.value...)
		leaf = binary.BigEndian.AppendUint64(leaf, e.version.Height)
		leaf = binary.BigEndian.AppendUint64(leaf, uint64(e.version.TxIndex))
		leaves = append(leaves, leaf)
	}
	s.mu.RUnlock()
	return merkle.Root(leaves)
}

// ReadSet maps keys to the versions observed during simulation. Keys that
// were absent record the zero version.
type ReadSet map[string]Version

// WriteSet maps keys to new values; nil means delete.
type WriteSet map[string][]byte

// Sim is a transaction simulation: reads go through to the store (and are
// recorded), writes stay private to the simulation until committed.
type Sim struct {
	store  *Store
	reads  ReadSet
	writes WriteSet
	// order keeps write keys in first-write order for deterministic
	// iteration in tests and logs.
	order []string
}

// NewSim starts a simulation against the current state.
func (s *Store) NewSim() *Sim {
	return &Sim{store: s, reads: make(ReadSet), writes: make(WriteSet)}
}

// Get reads a key: simulation-local writes win, otherwise the store value
// is returned and the observed version recorded in the read set.
func (sim *Sim) Get(key string) ([]byte, bool) {
	if v, ok := sim.writes[key]; ok {
		if v == nil {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	val, ver, ok := sim.store.Get(key)
	sim.reads[key] = ver
	if !ok {
		return nil, false
	}
	return val, true
}

// Put stages a write.
func (sim *Sim) Put(key string, value []byte) {
	if _, seen := sim.writes[key]; !seen {
		sim.order = append(sim.order, key)
	}
	sim.writes[key] = append([]byte(nil), value...)
}

// Del stages a deletion.
func (sim *Sim) Del(key string) {
	if _, seen := sim.writes[key]; !seen {
		sim.order = append(sim.order, key)
	}
	sim.writes[key] = nil
}

// Range iterates the store keys under prefix merged with staged writes, in
// sorted order. Every store key touched is recorded in the read set.
func (sim *Sim) Range(prefix string, fn func(key string, value []byte) bool) {
	merged := make(map[string][]byte)
	sim.store.Range(prefix, func(k string, v []byte) bool {
		_, ver, _ := sim.store.Get(k)
		sim.reads[k] = ver
		merged[k] = v
		return true
	})
	for k, v := range sim.writes {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if v == nil {
			delete(merged, k)
		} else {
			merged[k] = append([]byte(nil), v...)
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, merged[k]) {
			return
		}
	}
}

// Results returns the captured read and write sets.
func (sim *Sim) Results() (ReadSet, WriteSet) { return sim.reads, sim.writes }

// ErrConflict is returned by Commit when a transaction's read set was
// invalidated (Fabric-style MVCC conflict).
var ErrConflict = errors.New("statedb: mvcc read conflict")

// Validate checks the read set against current versions.
func (s *Store) Validate(reads ReadSet) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, ver := range reads {
		cur, ok := s.data[k]
		switch {
		case !ok && ver == (Version{}):
			// Key absent then, absent now: fine.
		case ok && cur.version == ver:
			// Unchanged.
		default:
			return ErrConflict
		}
	}
	return nil
}

// Commit applies a validated write set at the given version.
func (s *Store) Commit(writes WriteSet, ver Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range writes {
		if v == nil {
			delete(s.data, k)
			continue
		}
		s.data[k] = entry{value: append([]byte(nil), v...), version: ver}
	}
}
