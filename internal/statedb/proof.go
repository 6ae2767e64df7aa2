package statedb

import (
	"encoding/binary"
	"fmt"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

// Key-membership proofs over the world-state commitment. A block header
// commits to Root(); ProveKey produces the state map's membership proof
// of one key's leaf against that root, which is what a light client
// verifies to trust a single contract value (e.g. a share's metadata)
// without holding any state of its own.

// stateLeaf is an entry's digest in the state map's Merkle tree: the
// leaf hash of its canonical key/value/version encoding. Root, ProveKey
// and VerifyKeyProof share it.
func stateLeaf(key string, e entry) merkle.Hash {
	b := make([]byte, 0, len(key)+len(e.value)+32)
	b = binary.BigEndian.AppendUint64(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(e.value)))
	b = append(b, e.value...)
	b = binary.BigEndian.AppendUint64(b, e.version.Height)
	return merkle.HashLeaf(binary.BigEndian.AppendUint64(b, uint64(e.version.TxIndex)))
}

// ProveKey returns the current value and version of key together with a
// Merkle membership proof against the state root it computes in the
// same atomic snapshot. The returned root is the commitment the proof
// verifies under — callers match it against a block header's StateRoot.
func (s *Store) ProveKey(key string) (value []byte, ver Version, proof pmap.Proof, root merkle.Hash, err error) {
	m := s.snapshot()
	e, ok := m.Get(key)
	if !ok {
		return nil, Version{}, pmap.Proof{}, merkle.Hash{}, fmt.Errorf("statedb: key %q not found", key)
	}
	proof, _ = m.Prove(key, stateLeaf) // present: Get found it in this snapshot
	return append([]byte(nil), e.value...), e.version, proof, m.MerkleRoot(stateLeaf), nil
}

// VerifyKeyProof checks that (key, value, ver) is committed under root
// by the given membership proof.
func VerifyKeyProof(root merkle.Hash, key string, value []byte, ver Version, proof pmap.Proof) bool {
	return pmap.VerifyProof(root, stateLeaf(key, entry{value: value, version: ver}), proof)
}
