package reldb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medshare/internal/merkle"
	"medshare/internal/reldb/pmap"
)

func merkleTestSchema() Schema {
	return Schema{
		Name: "mrk",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "name", Type: KindString},
			{Name: "dose", Type: KindString},
		},
		Key: []string{"id"},
	}
}

// randomMerkleTable builds a table through a random mutation history and
// returns it plus the reference contents.
func randomMerkleTable(rng *rand.Rand, n int) (*Table, map[int64]string) {
	t := MustNewTable(merkleTestSchema())
	ref := make(map[int64]string)
	for i := 0; i < n; i++ {
		id := int64(rng.Intn(n/2 + 1))
		switch rng.Intn(5) {
		case 0:
			if _, ok := ref[id]; ok {
				_ = t.Delete(Row{I(id)})
				delete(ref, id)
			}
		default:
			dose := fmt.Sprintf("d%d", rng.Intn(8))
			_ = t.Upsert(Row{I(id), S(fmt.Sprintf("n%d", id)), S(dose)})
			ref[id] = dose
		}
	}
	return t, ref
}

// TestMerkleRootIffEqual: the central property of the canonical Merkle
// row tree — RowsRoot (and Hash) equality holds exactly when the tables
// are Equal, regardless of mutation history.
func TestMerkleRootIffEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, ra := randomMerkleTable(rng, 120)
		b, rb := randomMerkleTable(rng, 120)

		// Rebuild a's contents through an entirely different history
		// (ascending bulk inserts into a fresh table).
		c := MustNewTable(merkleTestSchema())
		for _, r := range a.RowsCanonical() {
			c.MustInsert(r)
		}
		if !a.Equal(c) || a.RowsRoot() != c.RowsRoot() || a.Hash() != c.Hash() {
			t.Logf("seed %d: rebuilt table root/hash diverged from original", seed)
			return false
		}

		sameRef := len(ra) == len(rb)
		if sameRef {
			for id, dose := range ra {
				if rb[id] != dose {
					sameRef = false
					break
				}
			}
		}
		eq := a.Equal(b)
		rootEq := a.RowsRoot() == b.RowsRoot()
		hashEq := a.Hash() == b.Hash()
		if eq != sameRef || rootEq != sameRef || hashEq != sameRef {
			t.Logf("seed %d: Equal=%v rootEq=%v hashEq=%v want %v", seed, eq, rootEq, hashEq, sameRef)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMerkleRootAfterChangesetApply: applying a.Diff(b) to a clone of a
// must land exactly on b's root — the convergence check peers run.
func TestMerkleRootAfterChangesetApply(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a, _ := randomMerkleTable(rng, 200)
	b, _ := randomMerkleTable(rng, 200)
	a.Hash() // replicas are hashed in steady state; clones share the cache
	cs, err := a.Diff(b.Renamed(a.Name()))
	if err != nil {
		t.Fatal(err)
	}
	applied := a.Clone()
	if err := applied.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if applied.RowsRoot() != b.RowsRoot() {
		t.Fatal("root after changeset apply diverges from target")
	}
}

// TestProveRowRoundTrip: proofs for every row verify against RowsRoot;
// tampered rows, foreign roots, and proofs reused for other rows fail.
func TestProveRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl, _ := randomMerkleTable(rng, 300)
	if tbl.Len() < 10 {
		t.Fatal("table too small for the test")
	}
	root := tbl.RowsRoot()
	rows := tbl.RowsCanonical()
	for _, r := range rows {
		row, p, err := tbl.ProveRow(tbl.KeyValues(r))
		if err != nil {
			t.Fatal(err)
		}
		if !row.Equal(r) {
			t.Fatal("ProveRow returned the wrong row")
		}
		if !VerifyRowProof(root, row, p) {
			t.Fatalf("valid proof rejected for key %v", tbl.KeyValues(r))
		}
		// Tampered row content must be rejected.
		bad := row.Clone()
		bad[2] = S("tampered")
		if VerifyRowProof(root, bad, p) {
			t.Fatal("tampered row accepted")
		}
		// The proof must not verify an unrelated row.
		other := rows[rng.Intn(len(rows))]
		if !other.Equal(row) && VerifyRowProof(root, other, p) {
			t.Fatal("proof accepted for a different row")
		}
	}
	// A proof never transfers to another table's root.
	other, _ := randomMerkleTable(rand.New(rand.NewSource(6)), 300)
	row, p, err := tbl.ProveRow(tbl.KeyValues(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if other.RowsRoot() != root && VerifyRowProof(other.RowsRoot(), row, p) {
		t.Fatal("proof accepted against a foreign root")
	}
	if _, _, err := tbl.ProveRow(Row{I(1 << 40)}); err == nil {
		t.Fatal("proof produced for an absent key")
	}
}

// TestSplicedInteriorNodeRejected: domain separation between leaf and
// interior hashes must stop an interior digest from being re-presented
// at a different tree position. We splice by treating a child subtree's
// digest as if it were an entry digest one level up — without the
// leaf/tree prefixes these would collide by construction.
func TestSplicedInteriorNodeRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl, _ := randomMerkleTable(rng, 300)
	root := tbl.RowsRoot()
	node, ok := tbl.MerkleNodeAt(nil)
	if !ok || node.Left == nil {
		t.Fatal("need a root with a left child")
	}
	// Claim the left subtree's digest is a leaf sitting directly under
	// the root: a proof with no steps whose node is the root itself.
	spliced := pmap.Proof{Left: node.Left.Digest}
	if node.Right != nil {
		spliced.Right = node.Right.Digest
	}
	// The "entry" the attacker presents is the left child's interior
	// digest re-labelled as a leaf; the root-entry digest goes where the
	// left child's belongs. Every such rearrangement must fail.
	var buf []byte
	rootLeaf := merkle.HashLeaf(node.Row.AppendCanonical(buf))
	for _, attempt := range []pmap.Proof{
		spliced,
		{Left: rootLeaf, Right: spliced.Right},
		{Left: spliced.Right, Right: node.Left.Digest},
	} {
		if pmap.VerifyProof(root, node.Left.Digest, attempt) {
			t.Fatal("interior digest accepted as a leaf entry")
		}
	}
}

// TestRowDigestIsDomainSeparatedLeaf: rowEntry digests must be
// merkle.HashLeaf over the canonical row encoding — one shared leaf
// construction for table rows and block trees.
func TestRowDigestIsDomainSeparatedLeaf(t *testing.T) {
	r := Row{I(7), S("amoxicillin"), S("250mg")}
	want := merkle.HashLeaf(r.AppendCanonical(nil))
	if rowDigest(r) != want {
		t.Fatal("rowDigest is not merkle.HashLeaf over the canonical encoding")
	}
}

// TestMerkleAssemblerRebuild: grafting every subtree of a table through
// the assembler reproduces the table exactly (root-for-root), and
// out-of-order streams are rejected.
func TestMerkleAssemblerRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl, _ := randomMerkleTable(rng, 250)
	root := tbl.RowsRoot()

	// Whole-table graft: one AppendLocal of the root digest.
	a := NewMerkleAssembler(tbl)
	if !a.HasLocal(root) {
		t.Fatal("assembler does not know its own root")
	}
	if err := a.AppendLocal(root); err != nil {
		t.Fatal(err)
	}
	out, err := a.Table()
	if err != nil {
		t.Fatal(err)
	}
	if out.RowsRoot() != root || !out.Equal(tbl) {
		t.Fatal("grafted rebuild diverged")
	}

	// Row-by-row transfer into an empty base.
	empty := MustNewTable(merkleTestSchema())
	b := NewMerkleAssembler(empty)
	for _, r := range tbl.RowsCanonical() {
		if err := b.AppendRow(r.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	out2, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	if out2.RowsRoot() != root {
		t.Fatal("row-by-row rebuild diverged")
	}

	// Out-of-order and duplicate appends must be rejected.
	c := NewMerkleAssembler(empty)
	rows := tbl.RowsCanonical()
	if err := c.AppendRow(rows[1].Clone()); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRow(rows[0].Clone()); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	d := NewMerkleAssembler(empty)
	if err := d.AppendRow(rows[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRow(rows[0].Clone()); err == nil {
		t.Fatal("duplicate append accepted")
	}
}
