package statedb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

// refStore is the reference model FuzzStateOps checks Store against: the
// world state as a flat map, sorted on every ordered read, with the leaf
// encoding written out in full rather than shared with proof.go, and the
// Merkle tree rebuilt from scratch for every root and proof without pmap
// (whose Proof type it returns, and nothing more).
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

func (s *refStore) sortedKeys() []string {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	for _, k := range s.sortedKeys() {
		e := s.data[k]
		out = append(out, Entry{Key: k, Value: append([]byte(nil), e.value...), Version: e.version})
	}
	return out
}

// leaf writes out the canonical key/value/version leaf of key.
func (s *refStore) leaf(k string) []byte {
	e := s.data[k]
	leaf := binary.BigEndian.AppendUint64(nil, uint64(len(k)))
	leaf = append(leaf, k...)
	leaf = binary.BigEndian.AppendUint64(leaf, uint64(len(e.value)))
	leaf = append(leaf, e.value...)
	leaf = binary.BigEndian.AppendUint64(leaf, e.version.Height)
	return binary.BigEndian.AppendUint64(leaf, uint64(e.version.TxIndex))
}

// refNode is one node of the reference treap.
type refNode struct {
	key         string
	left, right *refNode
}

// refTreap builds the treap over sorted keys the naive way: the root is
// the key of highest priority, the first 8 bytes of SHA-256(key) read
// big-endian, with the larger key winning a tie, and each side is built
// by the same rule. Quadratic, which a fuzzed state affords.
func refTreap(keys []string) *refNode {
	if len(keys) == 0 {
		return nil
	}
	prio := func(k string) uint64 {
		d := sha256.Sum256([]byte(k))
		return binary.BigEndian.Uint64(d[:8])
	}
	top := 0
	for i, k := range keys {
		if prio(k) >= prio(keys[top]) { // keys ascend: on a tie the later one is larger
			top = i
		}
	}
	return &refNode{key: keys[top], left: refTreap(keys[:top]), right: refTreap(keys[top+1:])}
}

// digest is the Merkle digest of the subtree at n: its left digest, its
// own leaf's hash and its right digest, under the tree-node hash; an
// empty subtree digests to zero.
func (s *refStore) digest(n *refNode) merkle.Hash {
	if n == nil {
		return merkle.Hash{}
	}
	return merkle.HashTreeNode(s.digest(n.left), merkle.HashLeaf(s.leaf(n.key)), s.digest(n.right))
}

func (s *refStore) Root() merkle.Hash { return s.digest(refTreap(s.sortedKeys())) }

// ProveKey walks from the treap's root to key, then lists the key's
// child digests and, from its parent upward, each ancestor's leaf hash
// and the digest of the side the walk did not take.
func (s *refStore) ProveKey(key string) ([]byte, Version, pmap.Proof, merkle.Hash, error) {
	e, ok := s.data[key]
	if !ok {
		return nil, Version{}, pmap.Proof{}, merkle.Hash{}, fmt.Errorf("key %q not found", key)
	}
	root := refTreap(s.sortedKeys())
	var path []*refNode
	n := root
	for n.key != key {
		path = append(path, n)
		if key < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	proof := pmap.Proof{Left: s.digest(n.left), Right: s.digest(n.right)}
	for i := len(path) - 1; i >= 0; i-- {
		a := path[i]
		step := pmap.ProofStep{Entry: merkle.HashLeaf(s.leaf(a.key)), Other: s.digest(a.left), PathLeft: key < a.key}
		if step.PathLeft {
			step.Other = s.digest(a.right)
		}
		proof.Steps = append(proof.Steps, step)
	}
	return append([]byte(nil), e.value...), e.version, proof, s.digest(root), nil
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
