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

func (r *headerReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *headerReader) tx() (*Tx, error) {
	tx := &Tx{}
	var err error
	if tx.Contract, err = r.str(); err != nil {
		return nil, err
	}
	if tx.Fn, err = r.str(); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.buf)) {
		return nil, errHeaderWire
	}
	if n > 0 {
		tx.Args = make([][]byte, n)
		for i := range tx.Args {
			if tx.Args[i], err = r.bytes(); err != nil {
				return nil, err
			}
		}
	}
	if tx.ShareID, err = r.str(); err != nil {
		return nil, err
	}
	from, err := r.raw(len(tx.From))
	if err != nil {
		return nil, err
	}
	copy(tx.From[:], from)
	if tx.PubKey, err = r.bytes(); err != nil {
		return nil, err
	}
	if tx.Nonce, err = r.uvarint(); err != nil {
		return nil, err
	}
	ts, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	tx.TimestampMicro = int64(ts)
	if tx.Sig, err = r.bytes(); err != nil {
		return nil, err
	}
	return tx, nil
}

func (r *headerReader) txs() ([]*Tx, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.buf)/minTxLen) {
		return nil, errHeaderWire
	}
	if n == 0 {
		return nil, nil
	}
	txs := make([]*Tx, n)
	for i := range txs {
		if txs[i], err = r.tx(); err != nil {
			return nil, err
		}
	}
	return txs, nil
}

// decodeFrame checks the version byte, copies the frame once (decoded
// fields alias the copy, never the caller's buffer), runs body over it
// and rejects trailing bytes.
func decodeFrame(p []byte, body func(*headerReader) error) error {
	if len(p) == 0 || p[0] != blockCodecVersion {
		return fmt.Errorf("%w: no version %d byte", errBlockWire, blockCodecVersion)
	}
	r := &headerReader{buf: append([]byte(nil), p[1:]...)}
	if err := body(r); err != nil {
		return errBlockWire
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBlockWire, len(r.buf))
	}
	return nil
}

// DecodeTx parses a frame produced by AppendTxBinary.
func DecodeTx(p []byte) (*Tx, error) {
	var tx *Tx
	err := decodeFrame(p, func(r *headerReader) (err error) {
		tx, err = r.tx()
		return err
	})
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// DecodeTxBatch parses a frame produced by AppendTxBatchBinary.
func DecodeTxBatch(p []byte) ([]*Tx, error) {
	var txs []*Tx
	err := decodeFrame(p, func(r *headerReader) (err error) {
		txs, err = r.txs()
		return err
	})
	if err != nil {
		return nil, err
	}
	return txs, nil
}

// DecodeBlock parses a frame produced by AppendBlockBinary.
func DecodeBlock(p []byte) (*Block, error) {
	b := &Block{}
	err := decodeFrame(p, func(r *headerReader) (err error) {
		if err = r.header(&b.Header); err == nil {
			b.Txs, err = r.txs()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}
