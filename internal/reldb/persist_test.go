package reldb

import (
	"math/rand"
	"testing"
)

// collectNodes exports every node of t not already in known into it and
// returns the number of fresh nodes emitted.
func collectNodes(t *Table, known map[[32]byte]NodeData) int {
	fresh := 0
	t.ExportNodes(
		func(d [32]byte) bool { _, ok := known[d]; return ok },
		func(n NodeData) bool { known[n.Digest] = n; fresh++; return true },
	)
	return fresh
}

// TestPersistRoundTrip: export → import reproduces the exact table
// (root, hash, contents), for unkeyed and keyed priorities alike.
func TestPersistRoundTrip(t *testing.T) {
	for _, secret := range [][]byte{nil, []byte("share-secret")} {
		rng := rand.New(rand.NewSource(7))
		tab, _ := randomMerkleTable(rng, 200)
		tab = tab.Reseeded(secret)

		known := make(map[[32]byte]NodeData)
		collectNodes(tab, known)

		got, err := TableFromNodes(tab.Schema(), secret, tab.RowsRoot(), tab.Len(),
			func(d [32]byte) (NodeData, bool) { n, ok := known[d]; return n, ok })
		if err != nil {
			t.Fatalf("secret=%q: TableFromNodes: %v", secret, err)
		}
		if got.Hash() != tab.Hash() {
			t.Fatalf("secret=%q: recovered hash differs", secret)
		}
		if !got.Equal(tab) {
			t.Fatalf("secret=%q: recovered table not equal", secret)
		}
		// The recovered table must be fully functional, not just equal:
		// mutate it and check the root tracks.
		if err := got.Upsert(Row{I(9999), S("x"), S("y")}); err != nil {
			t.Fatalf("mutating recovered table: %v", err)
		}
		want := tab.Clone()
		want.MustInsert(Row{I(9999), S("x"), S("y")})
		if got.RowsRoot() != want.RowsRoot() {
			t.Fatalf("secret=%q: recovered table diverges after mutation", secret)
		}
	}
}

// TestPersistIncremental: exporting a k-row descendant against the
// ancestor's digest set emits O(k log n) nodes, not O(n).
func TestPersistIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab, _ := randomMerkleTable(rng, 1000)
	known := make(map[[32]byte]NodeData)
	full := collectNodes(tab, known)
	if full != tab.Len() {
		t.Fatalf("full export emitted %d nodes for %d rows", full, tab.Len())
	}

	next := tab.Clone()
	next.MustInsert(Row{I(100000), S("new"), S("row")})
	fresh := collectNodes(next, known)
	if fresh == 0 || fresh > 40 {
		t.Fatalf("one-row delta exported %d nodes (want O(log n), ~<=40)", fresh)
	}

	got, err := TableFromNodes(next.Schema(), nil, next.RowsRoot(), next.Len(),
		func(d [32]byte) (NodeData, bool) { n, ok := known[d]; return n, ok })
	if err != nil {
		t.Fatalf("TableFromNodes after incremental export: %v", err)
	}
	if !got.Equal(next) {
		t.Fatal("incremental recovery not equal")
	}
}

// TestPersistRejectsCorruption: a tampered record set must be detected —
// wrong row content, wrong root, missing interior node, or a cyclic DAG
// all fail loudly instead of yielding silently wrong data.
func TestPersistRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab, _ := randomMerkleTable(rng, 64)
	known := make(map[[32]byte]NodeData)
	collectNodes(tab, known)
	root := tab.RowsRoot()
	nodesFrom := func(m map[[32]byte]NodeData) func([32]byte) (NodeData, bool) {
		return func(d [32]byte) (NodeData, bool) { n, ok := m[d]; return n, ok }
	}

	// Tamper with one row in place (digest key unchanged).
	tampered := make(map[[32]byte]NodeData, len(known))
	for d, n := range known {
		tampered[d] = n
	}
	tamperedOne := false
	for d, n := range tampered {
		if len(n.Row) > 0 && !tamperedOne {
			r := n.Row.Clone()
			r[2] = S("EVIL")
			n.Row = r
			tampered[d] = n
			tamperedOne = true
		}
	}
	if _, err := TableFromNodes(tab.Schema(), nil, root, tab.Len(), nodesFrom(tampered)); err == nil {
		t.Fatal("tampered row content accepted")
	}

	// Missing interior node.
	if _, err := TableFromNodes(tab.Schema(), nil, root, tab.Len(),
		func(d [32]byte) (NodeData, bool) {
			if d == root {
				return NodeData{}, false
			}
			return known[d], len(known[d].Row) > 0
		}); err == nil {
		t.Fatal("missing root accepted")
	}

	// Cyclic DAG: a record referencing itself must hit the node bound,
	// not recurse forever.
	cyc := make(map[[32]byte]NodeData, len(known))
	for d, n := range known {
		n.Left = d // self-cycle
		cyc[d] = n
	}
	if _, err := TableFromNodes(tab.Schema(), nil, root, tab.Len(), nodesFrom(cyc)); err == nil {
		t.Fatal("cyclic DAG accepted")
	}

	// Wrong expected root.
	var bogus [32]byte
	bogus[0] = 0xff
	if _, err := TableFromNodes(tab.Schema(), nil, bogus, tab.Len(), nodesFrom(known)); err == nil {
		t.Fatal("bogus root accepted")
	}
}
