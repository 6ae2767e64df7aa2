package identity

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// fixedReader yields deterministic bytes for reproducible keys.
type fixedReader byte

func (f fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

func TestNewIdentity(t *testing.T) {
	id := MustNew("Doctor")
	if id.Name != "Doctor" {
		t.Fatalf("name = %s", id.Name)
	}
	if id.Address().IsZero() {
		t.Fatal("zero address")
	}
	if len(id.PublicKey()) == 0 {
		t.Fatal("no public key")
	}
}

func TestDeterministicFromReader(t *testing.T) {
	a, err := NewFrom("x", fixedReader(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFrom("y", fixedReader(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Address() != b.Address() {
		t.Fatal("same entropy should give the same address")
	}
	c, _ := NewFrom("z", fixedReader(8))
	if a.Address() == c.Address() {
		t.Fatal("different entropy should give different addresses")
	}
}

func TestSignVerify(t *testing.T) {
	id := MustNew("signer")
	msg := []byte("update D23 seq 4")
	sig := id.Sign(msg)
	if err := Verify(id.Address(), id.PublicKey(), msg, sig); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	id := MustNew("signer")
	sig := id.Sign([]byte("original"))
	if err := Verify(id.Address(), id.PublicKey(), []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsWrongKeyForAddress(t *testing.T) {
	a := MustNew("a")
	b := MustNew("b")
	msg := []byte("m")
	sig := b.Sign(msg)
	// b's key does not hash to a's address.
	if err := Verify(a.Address(), b.PublicKey(), msg, sig); !errors.Is(err, ErrAddrMismatch) {
		t.Fatalf("want ErrAddrMismatch, got %v", err)
	}
}

func TestVerifyRejectsForgedSignature(t *testing.T) {
	id := MustNew("signer")
	msg := []byte("m")
	sig := id.Sign(msg)
	sig[0] ^= 0xff
	if err := Verify(id.Address(), id.PublicKey(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestAddressTextRoundTrip(t *testing.T) {
	id := MustNew("x")
	txt, err := id.Address().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Address
	if err := back.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if back != id.Address() {
		t.Fatal("address changed across text round trip")
	}
}

func TestParseAddressRejects(t *testing.T) {
	if _, err := ParseAddress("zz"); err == nil {
		t.Fatal("non-hex should fail")
	}
	if _, err := ParseAddress("abcd"); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestAddressStringLengths(t *testing.T) {
	id := MustNew("x")
	if got := len(id.Address().String()); got != AddressLen*2 {
		t.Fatalf("hex length = %d", got)
	}
	if got := len(id.Address().Short()); got != 8 {
		t.Fatalf("short length = %d", got)
	}
}

func TestSignVerifyQuick(t *testing.T) {
	id := MustNew("q")
	f := func(msg []byte) bool {
		sig := id.Sign(msg)
		return Verify(id.Address(), id.PublicKey(), msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressOfStable(t *testing.T) {
	id := MustNew("x")
	a := AddressOf(id.PublicKey())
	b := AddressOf(id.PublicKey())
	if a != b {
		t.Fatal("AddressOf not deterministic")
	}
	if a != id.Address() {
		t.Fatal("AddressOf disagrees with Identity.Address")
	}
	addr := id.Address()
	if !bytes.Equal(a[:], addr[:]) {
		t.Fatal("byte forms disagree")
	}
}
