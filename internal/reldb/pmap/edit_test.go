package pmap

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// FuzzEditOps drives an operation sequence against base.Edit() and, in
// lockstep, against the persistent operations on base. The first byte
// selects the configuration (bit0 keys the priorities with a seed, bit1
// builds the base on a bulk transient's slabs instead of persistent
// Sets), the second sizes the non-empty base, and the rest is consumed
// three bytes at a time as (opcode, key, value): Set, Delete or Get.
// The base's digests are cached before the edit, so a copy that carried
// its original's digest would show as a wrong root. After Freeze the
// edited map must hold the persistent result's entries, satisfy every
// structural invariant and digest like a FromSortedSeeded rebuild, and
// the base must be exactly what it was.
func FuzzEditOps(f *testing.F) {
	f.Add([]byte{0, 20})
	// Replacements of present keys, then deletes and re-inserts.
	f.Add([]byte{0, 30, 0, 5, 1, 0, 10, 2, 0, 5, 3, 1, 10, 0, 0, 10, 4, 2, 5, 0})
	// Seeded, slab-built base; inserts of absent keys and lookups.
	f.Add([]byte{3, 12, 0, 63, 1, 0, 61, 2, 2, 61, 0, 1, 0, 0, 1, 7, 0, 0, 62, 9})
	// Deleting down to empty and growing again.
	f.Add([]byte{1, 3, 1, 0, 0, 1, 5, 0, 1, 10, 0, 0, 40, 1, 0, 41, 2, 2, 41, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, n, ops := data[0], int(data[1])%48+1, data[2:]
		var seed *Seed
		if mode&1 != 0 {
			seed = NewSeed([]byte("fuzz-edit-seed"))
		}
		key := func(b byte) string { return fmt.Sprintf("k%02d", int(b)%64) }

		var base Map[int]
		if mode&2 != 0 {
			keys := make([]string, 0, n)
			vals := make([]int, 0, n)
			for i := 0; i < n; i++ {
				keys = append(keys, key(byte(i)))
				vals = append(vals, 1000+i)
			}
			base = FromSortedSeeded(seed, keys, vals)
		} else {
			base = FromSortedSeeded[int](seed, nil, nil)
			for i := 0; i < n; i++ {
				base, _ = base.Set(key(byte(i*5)), 1000+i)
			}
		}
		baseRoot := base.MerkleRoot(testLeaf)
		baseKeys, baseVals := collect(base)

		ed := base.Edit()
		pm := base
		for i := 0; i+2 < len(ops); i += 3 {
			k, v := key(ops[i+1]), int(ops[i+2])
			prev, had := pm.Get(k)
			switch ops[i] % 3 {
			case 0:
				old, replaced := ed.Set(k, v)
				var existed bool
				pm, existed = pm.Set(k, v)
				if replaced != had || existed != had || (had && old != prev) {
					t.Fatalf("op %d: Set(%q) = %d,%v; persistent existed=%v, held %d,%v", i, k, old, replaced, existed, prev, had)
				}
			case 1:
				old, deleted := ed.Delete(k)
				var existed bool
				pm, existed = pm.Delete(k)
				if deleted != had || existed != had || (had && old != prev) {
					t.Fatalf("op %d: Delete(%q) = %d,%v; persistent existed=%v, held %d,%v", i, k, old, deleted, existed, prev, had)
				}
			case 2:
				got, ok := ed.Get(k)
				if ok != had || got != prev {
					t.Fatalf("op %d: Get(%q) = %d,%v want %d,%v", i, k, got, ok, prev, had)
				}
			}
			if ed.Len() != pm.Len() {
				t.Fatalf("op %d: Len=%d want %d", i, ed.Len(), pm.Len())
			}
		}

		m := ed.Freeze()
		checkInvariants(t, m)
		keys, vals := collect(m)
		wantKeys, wantVals := collect(pm)
		if fmt.Sprint(keys, vals) != fmt.Sprint(wantKeys, wantVals) {
			t.Fatalf("edited map %v %v, persistent ops %v %v", keys, vals, wantKeys, wantVals)
		}
		root := m.MerkleRoot(testLeaf)
		if root != FromSortedSeeded(seed, keys, vals).MerkleRoot(testLeaf) {
			t.Fatal("edited map's Merkle root diverges from a FromSortedSeeded rebuild")
		}
		if root != pm.MerkleRoot(testLeaf) {
			t.Fatal("edited map's Merkle root diverges from the persistent ops' result")
		}

		checkInvariants(t, base)
		gotKeys, gotVals := collect(base)
		if fmt.Sprint(gotKeys, gotVals) != fmt.Sprint(baseKeys, baseVals) {
			t.Fatal("the edit changed its base map's entries")
		}
		if base.MerkleRoot(testLeaf) != baseRoot || FromSortedSeeded(seed, baseKeys, baseVals).MerkleRoot(testLeaf) != baseRoot {
			t.Fatal("the edit changed its base map's Merkle root")
		}
	})
}

// editBase is a 10k-entry map under a seed, the shape of a seeded share
// replica, with every digest cached.
func editBase(tb testing.TB) (Map[int], []string) {
	tb.Helper()
	const n = 10_000
	keys := make([]string, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("row-%06d", i)
		vals[i] = i
	}
	m := FromSortedSeeded(NewSeed([]byte("edit-bench-seed")), keys, vals)
	m.MerkleRoot(testLeaf)
	return m, keys
}

// TestEditRetainsNoHistory holds only the newest of 300 versions, each
// 512 replacements applied through Edit, and requires the live heap to
// stay flat. A node copied into a slab chunk would keep the chunk alive,
// and with it the stale nodes beside it and every older subtree they
// point to: that arena grows the heap by about 17 MB per 100 batches.
func TestEditRetainsNoHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("300 batches over a 10k map")
	}
	m, keys := editBase(t)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	for batch := 0; batch < 300; batch++ {
		ed := m.Edit()
		for i := 0; i < 512; i++ {
			ed.Set(keys[(batch*7919+i*19)%len(keys)], batch)
		}
		m = ed.Freeze()
		m.MerkleRoot(testLeaf)
	}
	after := live()
	runtime.KeepAlive(m)
	if after > before && after-before > 4<<20 {
		t.Fatalf("live heap grew by %d KB over 300 edits holding one version", (after-before)>>10)
	}
	t.Logf("live heap %d KB -> %d KB", before>>10, after>>10)
}

// TestEditCopiesEachNodeOnce: a batch through Edit allocates exactly the
// union of the touched paths, which is the number of nodes the result
// does not share with its base — never more than the persistent loop.
func TestEditCopiesEachNodeOnce(t *testing.T) {
	m, keys := editBase(t)
	batch := make([]string, 512)
	for i := range batch {
		batch[i] = keys[i*19]
	}
	ed := m.Edit()
	for i, k := range batch {
		ed.Set(k, -i)
	}
	edited := ed.Freeze()
	fresh := unshared(m.root, edited.root)
	union := map[*node[int]]bool{}
	for _, k := range batch {
		for n := m.root; n != nil; {
			union[n] = true
			if k == n.key {
				break
			}
			if k < n.key {
				n = n.left
			} else {
				n = n.right
			}
		}
	}
	if fresh != len(union) {
		t.Fatalf("edit made %d fresh nodes; the touched paths hold %d", fresh, len(union))
	}
	pm := m
	for i, k := range batch {
		pm, _ = pm.Set(k, -i)
	}
	if unshared(m.root, pm.root) != fresh || edited.MerkleRoot(testLeaf) != pm.MerkleRoot(testLeaf) {
		t.Fatal("the edit and the persistent loop disagree")
	}
}

// unshared counts the nodes of b not reachable from a.
func unshared(a, b *node[int]) int {
	old := map[*node[int]]bool{}
	var mark func(n *node[int])
	mark = func(n *node[int]) {
		if n != nil && !old[n] {
			old[n] = true
			mark(n.left)
			mark(n.right)
		}
	}
	mark(a)
	var count func(n *node[int]) int
	count = func(n *node[int]) int {
		if n == nil || old[n] {
			return 0
		}
		return 1 + count(n.left) + count(n.right)
	}
	return count(b)
}

var (
	sinkMap  Map[int]
	sinkHash Hash
)

// BenchmarkEdit replaces 512 (and 1) keys of a seeded 10k map, as a
// loop of persistent Sets and as one Edit; the _then_hash variants also
// take the result's first MerkleRoot. Both ways leave the same fresh
// nodes uncached, so the two differences (the rehash) should agree.
func BenchmarkEdit(b *testing.B) {
	m, keys := editBase(b)
	for _, rows := range []int{1, 512} {
		batch := make([]string, rows)
		for i := range batch {
			batch[i] = keys[(i*19)%len(keys)]
		}
		sort.Strings(batch)
		ways := []struct {
			name  string
			apply func() Map[int]
		}{
			{"persistent", func() Map[int] {
				out := m
				for i, k := range batch {
					out, _ = out.Set(k, i)
				}
				return out
			}},
			{"edit", func() Map[int] {
				ed := m.Edit()
				for i, k := range batch {
					ed.Set(k, i)
				}
				return ed.Freeze()
			}},
		}
		for _, w := range ways {
			b.Run(fmt.Sprintf("%s/rows=%d", w.name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					sinkMap = w.apply()
				}
			})
			b.Run(fmt.Sprintf("%s_then_hash/rows=%d", w.name, rows), func(b *testing.B) {
				for b.Loop() {
					sinkHash = w.apply().MerkleRoot(testLeaf)
				}
			})
		}
	}
}
