package core

import (
	"errors"
	"slices"
	"testing"

	"medshare/internal/identity"
	"medshare/internal/p2p"
)

// TestTransferAuthority: only the share's authority may hand the
// authority on, and afterwards only the new authority may change write
// permissions.
func TestTransferAuthority(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 4, mem.Endpoint("A"), mem.Endpoint("B"))
	// A registered S, so A holds its authority.
	if err := h.b.TransferAuthority(h.ctx, "S", h.b.Address()); !errors.Is(err, ErrTxFailed) {
		t.Fatalf("transfer by a peer that is not the authority: err = %v, want ErrTxFailed", err)
	}
	if err := h.a.TransferAuthority(h.ctx, "S", h.b.Address()); err != nil {
		t.Fatalf("transfer by the authority: %v", err)
	}
	meta, err := h.a.Meta("S")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Authority != h.b.Address() {
		t.Fatalf("authority after the transfer = %s, want B", meta.Authority)
	}

	onlyB := []identity.Address{h.b.Address()}
	if err := h.a.SetPermission(h.ctx, "S", "v", onlyB); !errors.Is(err, ErrTxFailed) {
		t.Fatalf("permission change by the former authority: err = %v, want ErrTxFailed", err)
	}
	if err := h.b.SetPermission(h.ctx, "S", "v", onlyB); err != nil {
		t.Fatalf("permission change by the new authority: %v", err)
	}
	if meta, err = h.b.Meta("S"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(meta.WritePerm["v"], onlyB) {
		t.Fatalf("writers of v = %v, want only B", meta.WritePerm["v"])
	}
}
