// Package merkle holds the SHA-256 hashing roles every Merkle structure
// in the system shares, and the flat binary tree a block header commits
// its transaction list with (Section III-B: "immutability, auditability,
// and transparency"). The contract state and the rows are committed by
// pmap's Merkle search tree over the same hashes; membership proofs live
// there, in pmap.Prove and pmap.VerifyProof.
package merkle

import "crypto/sha256"

// Hash is a SHA-256 digest.
type Hash = [32]byte

// leafPrefix, nodePrefix, and treePrefix domain-separate the three hash
// roles — leaf payloads, binary interior nodes, and search-tree interior
// nodes (which carry an entry of their own between two children) —
// preventing second-preimage attacks that splice one construction's
// digests into another's positions.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
	treePrefix = 0x02
)

// HashLeaf hashes a leaf payload.
func HashLeaf(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashNode hashes two child digests into a parent digest.
func HashNode(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashTreeNode hashes one interior node of a Merkle *search* tree — a
// node that carries its own entry digest between two child subtree
// digests (the shape of pmap's trees, where every node stores an entry:
// reldb's rows and the world state). The entry digest is expected to be
// a HashLeaf output and the child digests HashTreeNode outputs (or the
// all-zero hash for an empty subtree); the distinct treePrefix keeps all
// three roles unspliceable.
func HashTreeNode(left, entry, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{treePrefix})
	h.Write(left[:])
	h.Write(entry[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// Root computes the Merkle root of the leaf payloads. An empty leaf set
// has the all-zero root. Odd levels promote the unpaired node (Bitcoin-style
// duplication is avoided; promotion is unambiguous).
func Root(leaves [][]byte) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = HashLeaf(l)
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, HashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}
