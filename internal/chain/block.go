package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"medshare/internal/identity"
	"medshare/internal/merkle"
)

// Header carries the block metadata committed to by the block hash.
type Header struct {
	// Height is the distance from genesis (genesis is 0).
	Height uint64 `json:"height"`
	// PrevHash links to the parent block.
	PrevHash merkle.Hash `json:"prevHash"`
	// TxRoot is the Merkle root over the canonical transaction encodings.
	TxRoot merkle.Hash `json:"txRoot"`
	// StateRoot commits to the world state after executing this block.
	StateRoot merkle.Hash `json:"stateRoot"`
	// TimestampMicro is the proposer's clock, microseconds since epoch.
	TimestampMicro int64 `json:"ts"`
	// Proposer is the address of the signing authority.
	Proposer identity.Address `json:"proposer"`
	// Nonce and Difficulty are always zero under PoA. They stay in the
	// hashed header format until that format is next versioned.
	Nonce      uint64 `json:"nonce"`
	Difficulty uint8  `json:"difficulty"`
	// ProposerPub is the proposer's public key (PoA signature check).
	ProposerPub []byte `json:"proposerPub,omitempty"`
	// Sig is the proposer's signature over SigHash.
	Sig []byte `json:"sig,omitempty"`
}

// SigHash is the digest a PoA proposer signs: the header minus Sig.
func (h *Header) SigHash() merkle.Hash {
	return h.hashContent(false)
}

// Hash returns the block hash (header including signature).
func (h *Header) Hash() merkle.Hash {
	return h.hashContent(true)
}

func (h *Header) hashContent(withSig bool) merkle.Hash {
	// Serialize into a stack buffer and hash once: the sha256.New +
	// field-by-field Write pattern costs measurable allocations.
	var arr [256]byte
	buf := arr[:0]
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.TxRoot[:]...)
	buf = append(buf, h.StateRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.TimestampMicro))
	buf = append(buf, h.Proposer[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.Nonce)
	buf = append(buf, h.Difficulty)
	if withSig {
		buf = append(buf, h.ProposerPub...)
		buf = append(buf, h.Sig...)
	}
	return sha256.Sum256(buf)
}

// Block is a header plus its transactions.
type Block struct {
	Header Header `json:"header"`
	Txs    []*Tx  `json:"txs"`

	// hashMemo caches the block hash after the header is final. Every
	// layer above re-hashes blocks constantly (store linkage, fork
	// choice, head comparisons, audit); memoizing turns those into
	// pointer loads. Consensus engines reset it when sealing mutates the
	// header.
	hashMemo atomic.Pointer[merkle.Hash]
}

// Hash returns the block hash, computed once and cached. Callers must not
// mutate the header after the first call; consensus engines that seal (and
// therefore mutate) a header call ResetHashCache.
func (b *Block) Hash() merkle.Hash {
	if p := b.hashMemo.Load(); p != nil {
		return *p
	}
	h := b.Header.Hash()
	b.hashMemo.Store(&h)
	return h
}

// ResetHashCache invalidates the memoized block hash after a header
// mutation (sealing).
func (b *Block) ResetHashCache() { b.hashMemo.Store(nil) }

// HashString returns the hex block hash.
func (b *Block) HashString() string {
	h := b.Hash()
	return hex.EncodeToString(h[:])
}

// TxLeaves returns the canonical Merkle leaves for the transactions.
func (b *Block) TxLeaves() [][]byte {
	leaves := make([][]byte, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = tx.Encode()
	}
	return leaves
}

// ComputeTxRoot computes the Merkle root over the block's transactions.
func (b *Block) ComputeTxRoot() merkle.Hash {
	return merkle.Root(b.TxLeaves())
}

// VerifyStructure checks everything about a block that does not require
// executing it: the transaction root, each transaction's signature, and
// the paper's conflict rule that a block carries at most one transaction
// per shared table.
//
// sigChecked, when non-nil, reports the transactions whose signatures
// the caller has already checked; their check is skipped, everything
// else still runs. That is sound for a transaction the caller verified
// under the same ID: the ID hashes the signed content (which covers From
// and PubKey) together with Sig, so it pins the very bytes Verify reads
// — the collision resistance the tx root and replay protection already
// rest on. nil checks every signature.
func (b *Block) VerifyStructure(sigChecked func(*Tx) bool) error {
	if b.ComputeTxRoot() != b.Header.TxRoot {
		return ErrBadTxRoot
	}
	seenShare := make(map[string]bool, len(b.Txs))
	for i, tx := range b.Txs {
		if sigChecked == nil || !sigChecked(tx) {
			if err := tx.Verify(); err != nil {
				return fmt.Errorf("tx %d: %w", i, err)
			}
		}
		if tx.ShareID != "" {
			if seenShare[tx.ShareID] {
				return fmt.Errorf("%w: share %s at height %d", ErrShareConflict, tx.ShareID, b.Header.Height)
			}
			seenShare[tx.ShareID] = true
		}
	}
	return nil
}

// Genesis builds the deterministic genesis block for a network name. All
// nodes of a network construct the identical genesis locally.
func Genesis(network string) *Block {
	seed := sha256.Sum256([]byte("medshare-genesis:" + network))
	return &Block{Header: Header{
		Height:         0,
		PrevHash:       seed,
		TimestampMicro: 0,
	}}
}
