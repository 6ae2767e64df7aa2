package chain

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"medshare/internal/identity"
	"medshare/internal/merkle"
	"medshare/internal/wire"
)

// MaxBatch is the most transactions one batch signature covers. A node
// produces blocks of up to MaxBatch transactions, and a block holds
// whole batches, so every batch fits one block.
const MaxBatch = 256

// batchSigLen is the length of the one signature a batch carries; a
// longer Sig is a batch member's.
const batchSigLen = ed25519.SignatureSize

// batchDomain separates a batch digest from every other signed message.
const batchDomain = "medshare-tx-batch\x00"

// SignBatch signs txs as id in chunks of up to MaxBatch, in order: each
// chunk is one batch with one signature, and a chunk of one is signed
// alone, as Sign does. It fills From and PubKey like Sign.
func SignBatch(id *identity.Identity, txs []*Tx) {
	for len(txs) > 0 {
		n := min(len(txs), MaxBatch)
		signBatch(id, txs[:n])
		txs = txs[n:]
	}
}

func signBatch(id *identity.Identity, txs []*Tx) {
	if len(txs) == 1 {
		txs[0].Sign(id)
		return
	}
	from, pub := id.Address(), append([]byte(nil), id.PublicKey()...)
	for _, tx := range txs {
		tx.From, tx.PubKey = from, pub
	}
	d := batchDigest(txs)
	sig := id.Sign(d[:])
	for i, tx := range txs {
		s := append(make([]byte, 0, batchSigLen+2*binary.MaxVarintLen16), sig...)
		tx.Sig = binary.AppendUvarint(binary.AppendUvarint(s, uint64(i)), uint64(len(txs)))
		tx.idMemo.Store(nil)
	}
}

// batchDigest is the message a batch's signature signs: the Merkle root
// over its members' SigHashes in index order, hashed under batchDomain.
func batchDigest(txs []*Tx) merkle.Hash {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		sh := tx.SigHash()
		leaves[i] = sh[:]
	}
	root := merkle.Root(leaves)
	return sha256.Sum256(append([]byte(batchDomain), root[:]...))
}

// batchPos reads a transaction's position in its batch from its Sig: a
// transaction signed alone is position 0 of 1. A member's position is
// two minimal varints, index below size, size from 2 to MaxBatch.
func batchPos(tx *Tx) (index, size int, err error) {
	if len(tx.Sig) <= batchSigLen {
		return 0, 1, nil
	}
	r := wire.NewReader(tx.Sig[batchSigLen:], ErrTxBadSig)
	i, n := r.Uvarint(), r.Uvarint()
	if err := r.Done(); err != nil {
		return 0, 0, fmt.Errorf("batch position: %w", err)
	}
	if n < 2 || n > MaxBatch || i >= n {
		return 0, 0, fmt.Errorf("%w: batch position %d of %d", ErrTxBadSig, i, n)
	}
	return int(i), int(n), nil
}

// nextGroup returns the signature group txs starts with: a transaction
// signed alone, or the whole batch whose first member starts txs.
func nextGroup(txs []*Tx) ([]*Tx, error) {
	index, size, err := batchPos(txs[0])
	switch {
	case err != nil:
		return nil, err
	case index != 0:
		return nil, fmt.Errorf("%w: batch member %d of %d outside its batch", ErrTxBadSig, index, size)
	case size > len(txs):
		return nil, fmt.Errorf("%w: batch of %d cut short at %d", ErrTxBadSig, size, len(txs))
	}
	group := txs[:size]
	return group, checkGroup(group)
}

// checkGroup checks everything about a signature group but the signature:
// it is signed, and a batch is whole, in index order, from one sender
// under one signature, with at most one member per share (as a block,
// which holds it whole, allows).
func checkGroup(group []*Tx) error {
	first := group[0]
	if len(first.Sig) == 0 || len(first.PubKey) == 0 {
		return ErrTxUnsigned
	}
	if len(first.PubKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrTxBadSig, len(first.PubKey))
	}
	var shares map[string]bool
	if len(group) > 1 {
		shares = make(map[string]bool, len(group))
	}
	for i, tx := range group {
		index, size, err := batchPos(tx)
		if err != nil {
			return err
		}
		if index != i || size != len(group) {
			return fmt.Errorf("%w: batch member %d of %d at position %d of %d", ErrTxBadSig, index, size, i, len(group))
		}
		if i > 0 && (tx.From != first.From || !bytes.Equal(tx.PubKey, first.PubKey) ||
			!bytes.Equal(tx.Sig[:batchSigLen], first.Sig[:batchSigLen])) {
			return fmt.Errorf("%w: batch member %d under another sender or signature", ErrTxBadSig, i)
		}
		if tx.ShareID != "" && shares != nil {
			if shares[tx.ShareID] {
				return fmt.Errorf("%w: share %s twice in one batch", ErrShareConflict, tx.ShareID)
			}
			shares[tx.ShareID] = true
		}
	}
	return nil
}

// verifyGroup checks a well-formed group's one signature and its
// sender's address binding.
func verifyGroup(group []*Tx) error {
	first := group[0]
	var msg merkle.Hash
	if len(group) == 1 {
		msg = first.SigHash()
	} else {
		msg = batchDigest(group)
	}
	sig := first.Sig[:min(len(first.Sig), batchSigLen)]
	if err := identity.Verify(first.From, ed25519.PublicKey(first.PubKey), msg[:], sig); err != nil {
		return fmt.Errorf("%w: %v", ErrTxBadSig, err)
	}
	return nil
}

// VerifyGroups checks the signatures of txs one signature group at a
// time, one ed25519 check per group. A group is a transaction signed
// alone, or a whole batch from SignBatch: its members contiguous and in
// index order, from one sender under one signature, on distinct shares.
// A batch member outside a complete group fails, and the walk resumes at
// the next transaction.
//
// skip, when non-nil, is asked about each well-formed group, and the
// signature of a group it vouches for is not checked. That is sound for
// a group the caller verified under the same transaction IDs: an ID
// hashes the signed content (which covers From and PubKey) together
// with Sig, so it pins every byte the check reads. fn, when non-nil, is
// called with each group whose signature was checked and the verdict.
// VerifyGroups returns the first failure.
func VerifyGroups(txs []*Tx, skip func(group []*Tx) bool, fn func(group []*Tx, err error)) error {
	var first error
	fail := func(at int, err error) {
		if first == nil {
			first = fmt.Errorf("tx %d: %w", at, err)
		}
	}
	for at := 0; at < len(txs); {
		group, err := nextGroup(txs[at:])
		if err != nil {
			fail(at, err)
			at++
			continue
		}
		if skip == nil || !skip(group) {
			err := verifyGroup(group)
			if fn != nil {
				fn(group, err)
			}
			if err != nil {
				fail(at, err)
			}
		}
		at += len(group)
	}
	return first
}
