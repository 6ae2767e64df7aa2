// Package chain implements the ledger substrate: signed transactions that
// invoke smart contracts, Merkle-rooted blocks, and a block-tree store
// with longest-chain fork choice. The chain stores only share *metadata*
// operations (Fig. 3) — raw medical data never appears on the ledger.
package chain

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"medshare/internal/identity"
	"medshare/internal/merkle"
)

// Tx is a signed smart-contract invocation.
type Tx struct {
	// Contract names the target contract (e.g. "sharereg").
	Contract string `json:"contract"`
	// Fn is the contract function to invoke.
	Fn string `json:"fn"`
	// Args are the function arguments.
	Args [][]byte `json:"args"`
	// ShareID, when non-empty, declares which shared table the
	// transaction operates on. The block validator enforces the paper's
	// conflict rule: at most one transaction per ShareID per block
	// (Section III-B).
	ShareID string `json:"shareId,omitempty"`
	// From is the sender address; PubKey must hash to it.
	From identity.Address `json:"from"`
	// PubKey is the sender's ed25519 public key.
	PubKey []byte `json:"pubKey"`
	// Nonce is a node-wide counter (node.Node.NextNonce) that keeps the
	// IDs of otherwise identical transactions apart. Nothing checks it:
	// it is not a per-sender sequence and gives no replay protection.
	// Replay protection as a consensus rule is ROADMAP item 20(b).
	Nonce uint64 `json:"nonce"`
	// TimestampMicro is the sender's clock at submission, microseconds
	// since the Unix epoch. Informational; consensus does not depend on it.
	TimestampMicro int64 `json:"ts"`
	// Sig is the ed25519 signature over SigHash.
	Sig []byte `json:"sig"`
}

// SigHash returns the digest the sender signs: everything except Sig.
func (tx *Tx) SigHash() merkle.Hash {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeBytes := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	writeStr(tx.Contract)
	writeStr(tx.Fn)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(tx.Args)))
	h.Write(n[:])
	for _, a := range tx.Args {
		writeBytes(a)
	}
	writeStr(tx.ShareID)
	h.Write(tx.From[:])
	writeBytes(tx.PubKey)
	binary.BigEndian.PutUint64(n[:], tx.Nonce)
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], uint64(tx.TimestampMicro))
	h.Write(n[:])
	var out merkle.Hash
	h.Sum(out[:0])
	return out
}

// ID returns the transaction identifier: the hash of the signed content
// plus the signature.
func (tx *Tx) ID() merkle.Hash {
	sh := tx.SigHash()
	h := sha256.New()
	h.Write(sh[:])
	h.Write(tx.Sig)
	var out merkle.Hash
	h.Sum(out[:0])
	return out
}

// IDString returns the hex transaction ID.
func (tx *Tx) IDString() string {
	id := tx.ID()
	return hex.EncodeToString(id[:])
}

// Sign fills From, PubKey, and Sig using the identity.
func (tx *Tx) Sign(id *identity.Identity) {
	tx.From = id.Address()
	tx.PubKey = append([]byte(nil), id.PublicKey()...)
	sh := tx.SigHash()
	tx.Sig = id.Sign(sh[:])
}

// Errors returned by transaction and block verification.
var (
	ErrTxUnsigned     = errors.New("chain: transaction is unsigned")
	ErrTxBadSig       = errors.New("chain: transaction signature invalid")
	ErrShareConflict  = errors.New("chain: multiple transactions on one share in a block")
	ErrBadTxRoot      = errors.New("chain: block tx root mismatch")
	ErrBadLinkage     = errors.New("chain: block does not extend a known block")
	ErrDuplicateBlock = errors.New("chain: block already known")
	ErrUnknownBlock   = errors.New("chain: unknown block")
)

// Verify checks the signature and address binding.
func (tx *Tx) Verify() error {
	if len(tx.Sig) == 0 || len(tx.PubKey) == 0 {
		return ErrTxUnsigned
	}
	if len(tx.PubKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrTxBadSig, len(tx.PubKey))
	}
	sh := tx.SigHash()
	if err := identity.Verify(tx.From, ed25519.PublicKey(tx.PubKey), sh[:], tx.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrTxBadSig, err)
	}
	return nil
}

// Encode returns the canonical byte encoding used as a Merkle leaf.
func (tx *Tx) Encode() []byte {
	sh := tx.SigHash()
	out := make([]byte, 0, len(sh)+len(tx.Sig))
	out = append(out, sh[:]...)
	out = append(out, tx.Sig...)
	return out
}
