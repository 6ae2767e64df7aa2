package statedb

import (
	"encoding/binary"
	"fmt"

	"medshare/internal/merkle"
)

// Key-membership proofs over the world-state commitment. A block header
// commits to Root(); ProveKey produces the Merkle membership proof of
// one key's canonical leaf against that root, which is what a light
// client verifies to trust a single contract value (e.g. a share's
// metadata) without holding any state of its own.

// appendStateLeaf builds the canonical key/value/version leaf — exactly
// the encoding Root() hashes, factored out so proof and root can never
// drift apart.
func appendStateLeaf(dst []byte, key string, value []byte, ver Version) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(value)))
	dst = append(dst, value...)
	dst = binary.BigEndian.AppendUint64(dst, ver.Height)
	return binary.BigEndian.AppendUint64(dst, uint64(ver.TxIndex))
}

// ProveKey returns the current value and version of key together with a
// Merkle membership proof against the state root it computes in the
// same atomic snapshot. The returned root is the commitment the proof
// verifies under — callers match it against a block header's StateRoot.
func (s *Store) ProveKey(key string) (value []byte, ver Version, proof merkle.Proof, root merkle.Hash, err error) {
	m := s.snapshot()
	e, ok := m.Get(key)
	if !ok {
		return nil, Version{}, merkle.Proof{}, merkle.Hash{}, fmt.Errorf("statedb: key %q not found", key)
	}
	ls, idx := leaves(m, key)
	proof, err = merkle.Prove(ls, idx)
	if err != nil {
		return nil, Version{}, merkle.Proof{}, merkle.Hash{}, err
	}
	return append([]byte(nil), e.value...), e.version, proof, merkle.Root(ls), nil
}

// VerifyKeyProof checks that (key, value, ver) is committed under root
// by the given membership proof.
func VerifyKeyProof(root merkle.Hash, key string, value []byte, ver Version, proof merkle.Proof) bool {
	leaf := appendStateLeaf(make([]byte, 0, len(key)+len(value)+32), key, value, ver)
	return merkle.Verify(root, leaf, proof)
}
