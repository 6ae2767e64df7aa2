package core

import (
	"reflect"
	"testing"

	"medshare/internal/reldb"
)

// TestProofCacheHitIsByteIdentical checks that a memoized proof is
// exactly the proof a cold build produces: same row, same path, same
// root, same table-hash preimage. Anything less and a cached read would
// verify differently from a fresh one.
func TestProofCacheHitIsByteIdentical(t *testing.T) {
	h := newChannelHarness(t)
	h.update(t, "v1")
	key := reldb.Row{reldb.I(1)}

	cold, err := h.a.ProveView("S", key)
	if err != nil {
		t.Fatal(err)
	}
	before := h.a.Stats()
	hit, err := h.a.ProveView("S", key)
	if err != nil {
		t.Fatal(err)
	}
	after := h.a.Stats()
	if after.ProofCacheHits != before.ProofCacheHits+1 {
		t.Fatalf("second ProveView was not a cache hit (hits %d -> %d, misses %d -> %d)",
			before.ProofCacheHits, after.ProofCacheHits, before.ProofCacheMisses, after.ProofCacheMisses)
	}
	if !reflect.DeepEqual(cold, hit) {
		t.Fatalf("cache hit differs from cold proof:\ncold %+v\nhit  %+v", cold, hit)
	}

	// The memoized proof must also be identical to an independent cold
	// rebuild against the same snapshot, not just internally consistent.
	view, err := h.a.snapshotTable("Sa")
	if err != nil {
		t.Fatal(err)
	}
	row, proof, err := view.ProveRow(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit.Row, row) || !reflect.DeepEqual(hit.Proof, proof) {
		t.Fatal("cached proof differs from a direct ProveRow against the same view")
	}
	if hit.Root != view.RowsRoot() || hit.SchemaSum != view.SchemaSum() || hit.Rows != view.Len() {
		t.Fatal("cached proof's table-hash preimage differs from the view's")
	}
	if !reldb.VerifyRowProof(hit.Root, hit.Row, hit.Proof) {
		t.Fatal("cached proof does not verify")
	}
}

// TestProofCacheInvalidatesOnSeqAdvance checks that no proof built
// before a version advance is ever served after it: the first read at
// the new applied seq must rebuild against the new root.
func TestProofCacheInvalidatesOnSeqAdvance(t *testing.T) {
	h := newChannelHarness(t)
	h.update(t, "v1")
	key := reldb.Row{reldb.I(1)}

	old, err := h.a.ProveView("S", key)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache at the old version, then advance it.
	if _, err := h.a.ProveView("S", key); err != nil {
		t.Fatal(err)
	}
	h.update(t, "v2")

	before := h.a.Stats()
	fresh, err := h.a.ProveView("S", key)
	if err != nil {
		t.Fatal(err)
	}
	after := h.a.Stats()
	if after.ProofCacheMisses != before.ProofCacheMisses+1 {
		t.Fatalf("read after seq advance was served from cache (hits %d -> %d, misses %d -> %d)",
			before.ProofCacheHits, after.ProofCacheHits, before.ProofCacheMisses, after.ProofCacheMisses)
	}
	if fresh.Seq <= old.Seq {
		t.Fatalf("fresh proof seq %d did not advance past %d", fresh.Seq, old.Seq)
	}
	if fresh.Root == old.Root {
		t.Fatal("fresh proof still anchors to the superseded root")
	}
	if got, _ := fresh.Row[1].Str(); got != "v2" {
		t.Fatalf("fresh proof proves stale row value %q", got)
	}
	if !reldb.VerifyRowProof(fresh.Root, fresh.Row, fresh.Proof) {
		t.Fatal("fresh proof does not verify against the new root")
	}
	// The superseded proof must not verify against the new root — the
	// seq check is what guarantees it is never served, and the root
	// change is what makes it harmless even if it leaked.
	if reldb.VerifyRowProof(fresh.Root, old.Row, old.Proof) {
		t.Fatal("stale proof verifies against the new root")
	}
}
