package chain

import (
	"encoding/binary"
	"fmt"

	"medshare/internal/wire"
)

// The binary block and transaction codec: the one byte form of a block
// or a transaction in the node store and in gossip. A block is a version
// byte, its header as AppendHeaderBinary writes it, a varint transaction
// count and the transactions; a transaction is its fields in declaration
// order, strings and byte slices behind varint lengths, the sender
// address raw, nonce and timestamp as varints. Contract arguments stay
// opaque bytes, so transaction IDs, signatures and the tx root do not
// depend on this codec. Every varint must be minimal and trailing bytes
// are rejected, so an accepted frame re-encodes to exactly its input. A
// decoded value owns its bytes: nothing aliases the input.

// blockCodecVersion tags block, transaction and transaction-batch frames.
const blockCodecVersion = 1

// minTxLen is the smallest encoded transaction: one byte for every
// length and varint, plus the raw sender address.
const minTxLen = 8 + len(Tx{}.From)

// errBlockWire marks a malformed block or transaction frame.
var errBlockWire = fmt.Errorf("chain: malformed block or transaction frame")

func appendTx(dst []byte, tx *Tx) []byte {
	dst = wire.AppendBytes(dst, tx.Contract)
	dst = wire.AppendBytes(dst, tx.Fn)
	dst = binary.AppendUvarint(dst, uint64(len(tx.Args)))
	for _, a := range tx.Args {
		dst = wire.AppendBytes(dst, a)
	}
	dst = wire.AppendBytes(dst, tx.ShareID)
	dst = append(dst, tx.From[:]...)
	dst = wire.AppendBytes(dst, tx.PubKey)
	dst = binary.AppendUvarint(dst, tx.Nonce)
	dst = binary.AppendUvarint(dst, uint64(tx.TimestampMicro))
	return wire.AppendBytes(dst, tx.Sig)
}

func appendTxs(dst []byte, txs []*Tx) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(txs)))
	for _, tx := range txs {
		dst = appendTx(dst, tx)
	}
	return dst
}

// AppendTxBinary appends the binary frame of one transaction to dst.
func AppendTxBinary(dst []byte, tx *Tx) []byte {
	return appendTx(append(dst, blockCodecVersion), tx)
}

// AppendTxBatchBinary appends the binary frame of a transaction batch to
// dst: the version byte, a varint count and the transactions.
func AppendTxBatchBinary(dst []byte, txs []*Tx) []byte {
	return appendTxs(append(dst, blockCodecVersion), txs)
}

// AppendBlockBinary appends the binary frame of a block to dst.
func AppendBlockBinary(dst []byte, b *Block) []byte {
	dst = AppendHeaderBinary(append(dst, blockCodecVersion), &b.Header)
	return appendTxs(dst, b.Txs)
}

func readTx(r *wire.Reader) *Tx {
	tx := &Tx{Contract: string(r.Bytes()), Fn: string(r.Bytes())}
	if n := r.Count(1); n > 0 {
		tx.Args = make([][]byte, n)
		for i := range tx.Args {
			tx.Args[i] = r.Bytes()
		}
	}
	tx.ShareID = string(r.Bytes())
	r.Fixed(tx.From[:])
	tx.PubKey = r.Bytes()
	tx.Nonce = r.Uvarint()
	tx.TimestampMicro = int64(r.Uvarint())
	tx.Sig = r.Bytes()
	return tx
}

func readTxs(r *wire.Reader) []*Tx {
	n := r.Count(minTxLen)
	if n == 0 {
		return nil
	}
	txs := make([]*Tx, n)
	for i := range txs {
		txs[i] = readTx(r)
	}
	return txs
}

// newFrameReader checks the version byte and returns a reader over a copy
// of the frame, so decoded fields alias the copy, never the caller's
// buffer.
func newFrameReader(p []byte) wire.Reader {
	r := wire.NewReader(append([]byte(nil), p...), errBlockWire)
	if r.Byte() != blockCodecVersion {
		r.Fail(fmt.Sprintf("no version %d byte", blockCodecVersion))
	}
	return r
}

// DecodeTx parses a frame produced by AppendTxBinary.
func DecodeTx(p []byte) (*Tx, error) {
	r := newFrameReader(p)
	tx := readTx(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return tx, nil
}

// DecodeTxBatch parses a frame produced by AppendTxBatchBinary.
func DecodeTxBatch(p []byte) ([]*Tx, error) {
	r := newFrameReader(p)
	txs := readTxs(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return txs, nil
}

// DecodeBlock parses a frame produced by AppendBlockBinary.
func DecodeBlock(p []byte) (*Block, error) {
	r := newFrameReader(p)
	b := &Block{}
	readHeader(&r, &b.Header)
	b.Txs = readTxs(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
