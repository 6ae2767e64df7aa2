package statedb

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"strings"

	"medshare/internal/merkle"
)

// refStore is the reference model FuzzStateOps checks Store against: the
// world state as a flat map, sorted on every ordered read, with the leaf
// encoding written out in full rather than shared with proof.go.
type refStore struct {
	data map[string]entry
}

func newRefStore() *refStore { return &refStore{data: make(map[string]entry)} }

func (s *refStore) Get(key string) ([]byte, Version, bool) {
	e, ok := s.data[key]
	if !ok {
		return nil, Version{}, false
	}
	return append([]byte(nil), e.value...), e.version, true
}

func (s *refStore) sortedKeys(prefix string) []string {
	var keys []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *refStore) Range(prefix string, fn func(key string, value []byte) bool) {
	for _, k := range s.sortedKeys(prefix) {
		if !fn(k, append([]byte(nil), s.data[k].value...)) {
			return
		}
	}
}

func (s *refStore) Len() int { return len(s.data) }

func (s *refStore) Clone() *refStore { return &refStore{data: maps.Clone(s.data)} }

func (s *refStore) Commit(writes WriteSet, ver Version) {
	for k, v := range writes {
		if v == nil {
			delete(s.data, k)
			continue
		}
		s.data[k] = entry{value: append([]byte(nil), v...), version: ver}
	}
}

func (s *refStore) Export() []Entry {
	var out []Entry
	for _, k := range s.sortedKeys("") {
		e := s.data[k]
		out = append(out, Entry{Key: k, Value: append([]byte(nil), e.value...), Version: e.version})
	}
	return out
}

func (s *refStore) leaves() [][]byte {
	var out [][]byte
	for _, k := range s.sortedKeys("") {
		e := s.data[k]
		leaf := binary.BigEndian.AppendUint64(nil, uint64(len(k)))
		leaf = append(leaf, k...)
		leaf = binary.BigEndian.AppendUint64(leaf, uint64(len(e.value)))
		leaf = append(leaf, e.value...)
		leaf = binary.BigEndian.AppendUint64(leaf, e.version.Height)
		leaf = binary.BigEndian.AppendUint64(leaf, uint64(e.version.TxIndex))
		out = append(out, leaf)
	}
	return out
}

func (s *refStore) Root() merkle.Hash { return merkle.Root(s.leaves()) }

func (s *refStore) ProveKey(key string) ([]byte, Version, merkle.Proof, merkle.Hash, error) {
	e, ok := s.data[key]
	if !ok {
		return nil, Version{}, merkle.Proof{}, merkle.Hash{}, fmt.Errorf("key %q not found", key)
	}
	leaves := s.leaves()
	proof, err := merkle.Prove(leaves, sort.SearchStrings(s.sortedKeys(""), key))
	if err != nil {
		return nil, Version{}, merkle.Proof{}, merkle.Hash{}, err
	}
	return append([]byte(nil), e.value...), e.version, proof, merkle.Root(leaves), nil
}

// refSim is the reference simulation: reads fall through to the store
// unless the write set holds the key, and a range merges the two.
type refSim struct {
	store  *refStore
	writes WriteSet
}

func (s *refStore) NewSim() *refSim { return &refSim{store: s, writes: make(WriteSet)} }

func (sim *refSim) Get(key string) ([]byte, bool) {
	if v, ok := sim.writes[key]; ok {
		if v == nil {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	v, _, ok := sim.store.Get(key)
	return v, ok
}

// Put stores a copy of value, so an empty value is stored as nil: a
// deletion.
func (sim *refSim) Put(key string, value []byte) {
	sim.writes[key] = append([]byte(nil), value...)
}

func (sim *refSim) Del(key string) { sim.writes[key] = nil }

func (sim *refSim) Range(prefix string, fn func(key string, value []byte) bool) {
	merged := make(map[string][]byte)
	sim.store.Range(prefix, func(k string, v []byte) bool {
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
