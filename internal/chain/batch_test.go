package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"medshare/internal/identity"
)

// batchOf returns unsigned transactions on the given shares.
func batchOf(shares ...string) []*Tx {
	txs := make([]*Tx, len(shares))
	for i, share := range shares {
		txs[i] = &Tx{
			Contract: "sharereg", Fn: "request_update", ShareID: share, Nonce: uint64(i + 1),
			Args: [][]byte{[]byte(`{"shareId":"` + share + `"}`)},
		}
	}
	return txs
}

// signedBatch returns a batch of n transactions on distinct shares,
// signed once by id.
func signedBatch(id *identity.Identity, n int) []*Tx {
	shares := make([]string, n)
	for i := range shares {
		shares[i] = fmt.Sprintf("s%d", i)
	}
	txs := batchOf(shares...)
	SignBatch(id, txs)
	return txs
}

// copyTxs copies every transaction of txs.
func copyTxs(txs []*Tx) []*Tx {
	out := make([]*Tx, len(txs))
	for i, tx := range txs {
		out[i] = copyTx(tx)
	}
	return out
}

// groups runs VerifyGroups and returns the size of every group checked.
func groups(txs []*Tx, skip func([]*Tx) bool) ([]int, error) {
	var sizes []int
	err := VerifyGroups(txs, skip, func(g []*Tx, _ error) { sizes = append(sizes, len(g)) })
	return sizes, err
}

func TestSignBatchVerifiesOnce(t *testing.T) {
	id := identity.MustNew("a")
	txs := signedBatch(id, 5)
	ids := make(map[string]bool)
	for i, tx := range txs {
		if tx.From != id.Address() || len(tx.Sig) != batchSigLen+2 {
			t.Fatalf("member %d: from %s, %d-byte sig", i, tx.From.Short(), len(tx.Sig))
		}
		if err := tx.Verify(); !errors.Is(err, ErrTxBadSig) {
			t.Fatalf("member %d verified alone: %v", i, err)
		}
		ids[tx.IDString()] = true
	}
	if len(ids) != len(txs) {
		t.Fatalf("%d distinct IDs for %d members", len(ids), len(txs))
	}
	sizes, err := groups(txs, nil)
	if err != nil || fmt.Sprint(sizes) != "[5]" {
		t.Fatalf("checked groups %v, err %v; want one group of 5", sizes, err)
	}
	if err := buildBlock(t, Genesis("t"), txs, id).VerifyStructure(nil); err != nil {
		t.Fatalf("block of one batch: %v", err)
	}

	lone := batchOf("s")
	SignBatch(id, lone)
	if len(lone[0].Sig) != batchSigLen || lone[0].Verify() != nil {
		t.Fatal("a batch of one is not signed alone")
	}

	big := make([]*Tx, MaxBatch+45)
	for i := range big {
		big[i] = &Tx{Contract: "c", Fn: "f", Nonce: uint64(i)}
	}
	SignBatch(id, big)
	if sizes, err := groups(big, nil); err != nil || fmt.Sprint(sizes) != fmt.Sprint([]int{MaxBatch, 45}) {
		t.Fatalf("%d transactions checked as groups %v (err %v), want chunks of %d and 45", len(big), sizes, err, MaxBatch)
	}
}

// TestSignResetsTxID: the memoized ID follows a re-signing.
func TestSignResetsTxID(t *testing.T) {
	a, b := identity.MustNew("a"), identity.MustNew("b")
	txs := batchOf("s1", "s2")
	before := txs[0].IDString()
	SignBatch(a, txs)
	signed := txs[0].IDString()
	txs[0].Sign(b)
	if before == signed || signed == txs[0].IDString() || txs[0].IDString() != copyTx(txs[0]).IDString() {
		t.Fatal("ID not recomputed after signing")
	}
}

// TestVerifyGroupsWalksEveryGroup: singles and batches mix, skip skips
// exactly the groups it names, and a bad group does not stop the walk.
func TestVerifyGroupsWalksEveryGroup(t *testing.T) {
	id := identity.MustNew("a")
	batch := signedBatch(id, 3)
	x, y := signedTx(t, id, "x", 7), signedTx(t, id, "y", 8)
	txs := append(append([]*Tx{x}, batch...), y)
	if sizes, err := groups(txs, nil); err != nil || fmt.Sprint(sizes) != "[1 3 1]" {
		t.Fatalf("groups %v, err %v; want [1 3 1]", sizes, err)
	}
	skipBatch := func(g []*Tx) bool { return len(g) == 3 }
	if sizes, err := groups(txs, skipBatch); err != nil || fmt.Sprint(sizes) != "[1 1]" {
		t.Fatalf("groups %v with the batch skipped, err %v; want [1 1]", sizes, err)
	}
	x.Sig[0] ^= 1
	var good []int
	err := VerifyGroups(txs, nil, func(g []*Tx, err error) {
		if err == nil {
			good = append(good, len(g))
		}
	})
	if !errors.Is(err, ErrTxBadSig) || fmt.Sprint(good) != "[3 1]" {
		t.Fatalf("after a bad single: err %v, good groups %v; want ErrTxBadSig and [3 1]", err, good)
	}
}

// rejects requires txs to fail VerifyGroups and, as a block's
// transactions under an honest tx root, VerifyStructure.
func rejects(t *testing.T, what string, txs []*Tx, want error) {
	t.Helper()
	if err := VerifyGroups(txs, nil, nil); !errors.Is(err, want) {
		t.Errorf("%s: VerifyGroups got %v, want %v", what, err, want)
	}
	id := identity.MustNew("proposer")
	if err := buildBlock(t, Genesis("t"), txs, id).VerifyStructure(nil); !errors.Is(err, want) {
		t.Errorf("%s: VerifyStructure got %v, want %v", what, err, want)
	}
}

// withPos returns a copy of batch whose members carry the position
// suffix pos(i) instead of their own.
func withPos(batch []*Tx, pos func(i int) []byte) []*Tx {
	out := copyTxs(batch)
	for i, tx := range out {
		tx.Sig = append(tx.Sig[:batchSigLen:batchSigLen], pos(i)...)
	}
	return out
}

func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestBatchRejectsTampering(t *testing.T) {
	id := identity.MustNew("a")
	batch := signedBatch(id, 5)
	if err := VerifyGroups(batch, nil, nil); err != nil {
		t.Fatal(err)
	}

	flipped := copyTxs(batch)
	flipped[2].Args[0] = append([]byte(nil), flipped[2].Args[0]...)
	flipped[2].Args[0][3] ^= 1
	rejects(t, "one member's Args byte flipped", flipped, ErrTxBadSig)

	swapped := copyTxs(batch)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	rejects(t, "two members swapped", swapped, ErrTxBadSig)

	rejects(t, "a member dropped", append(copyTxs(batch[:3]), copyTxs(batch[4:])...), ErrTxBadSig)
	rejects(t, "the last member dropped", copyTxs(batch[:4]), ErrTxBadSig)

	other := signedTx(t, id, "other", 9)
	rejects(t, "the batch less a member moved to another block", append(copyTxs(batch[:2]), copyTxs(batch[3:])...), ErrTxBadSig)
	rejects(t, "a block holding the moved member", []*Tx{other, copyTx(batch[2])}, ErrTxBadSig)

	dup := batchOf("s1", "s2", "s1")
	SignBatch(id, dup)
	rejects(t, "a batch with two members on one share", dup, ErrShareConflict)

	b := identity.MustNew("b")
	foreign := signedBatch(b, 5)
	spliced := copyTxs(batch)
	spliced[3] = copyTx(foreign[3])
	rejects(t, "a member of another sender's batch spliced in", spliced, ErrTxBadSig)

	pasted := copyTx(other)
	pasted.Sig = append([]byte(nil), batch[0].Sig...)
	rejects(t, "a batch member's signature pasted onto a single tx", []*Tx{pasted}, ErrTxBadSig)
	pasted = copyTx(other)
	pasted.Sig = append([]byte(nil), batch[0].Sig[:batchSigLen]...)
	rejects(t, "a batch signature pasted onto a single tx", []*Tx{pasted}, ErrTxBadSig)
	// A second encoding of a single tx's signature would give the same
	// signed content a second ID, and so a second commit.
	suffixed := copyTx(other)
	suffixed.Sig = append(suffixed.Sig, uv(0, 1)...)
	rejects(t, "a single tx's signature as position 0 of 1", []*Tx{suffixed}, ErrTxBadSig)

	n := uint64(len(batch))
	for name, pos := range map[string]func(i int) []byte{
		"non-minimal index":  func(i int) []byte { return append([]byte{byte(i) | 0x80, 0x00}, uv(n)...) },
		"non-minimal size":   func(i int) []byte { return append(uv(uint64(i)), byte(n)|0x80, 0x00) },
		"index equal size":   func(i int) []byte { return uv(uint64(i)+n, n) },
		"size 1":             func(i int) []byte { return uv(0, 1) },
		"size 0":             func(i int) []byte { return uv(uint64(i), 0) },
		"size above the max": func(i int) []byte { return uv(uint64(i), MaxBatch+1) },
		"a trailing byte":    func(i int) []byte { return append(uv(uint64(i), n), 0) },
		"no size":            func(i int) []byte { return uv(uint64(i)) },
		"a truncated varint": func(i int) []byte { return append(uv(uint64(i)), 0x80) },
	} {
		rejects(t, name, withPos(batch, pos), ErrTxBadSig)
	}

	huge := make([]*Tx, MaxBatch+1)
	for i := range huge {
		huge[i] = &Tx{Contract: "c", Fn: "f", Nonce: uint64(i)}
	}
	signBatch(id, huge)
	rejects(t, fmt.Sprintf("a batch of %d", len(huge)), huge, ErrTxBadSig)
}

// FuzzVerifyGroups: any reordering, split, repetition or bit flip of a
// signed batch fails VerifyGroups unless the result is the exact batch,
// byte for byte, once or several times over.
func FuzzVerifyGroups(f *testing.F) {
	id := identity.FromSeed("fuzz", "chain/verify-groups")
	batches := make(map[int][]*Tx)
	f.Add(uint8(3), []byte(nil), []byte(nil))
	f.Add(uint8(3), []byte{0, 1, 2, 0, 1, 2}, []byte(nil))
	f.Add(uint8(3), []byte{0, 2, 1}, []byte(nil))
	f.Add(uint8(3), []byte{0, 1}, []byte(nil))
	f.Add(uint8(0), []byte{1, 0}, []byte(nil))
	f.Add(uint8(3), []byte(nil), []byte{1, 0, 200})
	f.Add(uint8(2), []byte{0, 1, 2, 3}, []byte{3, 2, 17})

	f.Fuzz(func(t *testing.T, size uint8, order, flips []byte) {
		n := 2 + int(size)%5
		batch, ok := batches[n]
		if !ok {
			batch = signedBatch(id, n)
			batches[n] = batch
		}
		var txs []*Tx
		for _, o := range order {
			txs = append(txs, copyTx(batch[int(o)%n]))
		}
		if len(order) == 0 {
			txs = copyTxs(batch)
		}
		for i := 0; i+2 < len(flips); i += 3 {
			k := int(flips[i]) % len(txs)
			enc := AppendTxBinary(nil, txs[k])
			bit := (int(flips[i+1])<<8 | int(flips[i+2])) % (8 * (len(enc) - 1))
			enc[1+bit/8] ^= 1 << (bit % 8)
			if tx, err := DecodeTx(enc); err == nil {
				txs[k] = tx
			}
		}
		exact := len(txs)%n == 0
		for i := 0; exact && i < len(txs); i++ {
			exact = bytes.Equal(AppendTxBinary(nil, txs[i]), AppendTxBinary(nil, batch[i%n]))
		}
		err := VerifyGroups(txs, nil, nil)
		if exact && err != nil {
			t.Fatalf("the exact batch failed: %v", err)
		}
		if !exact && err == nil {
			t.Fatalf("%d transactions other than the signed batch of %d verified", len(txs), n)
		}
	})
}
