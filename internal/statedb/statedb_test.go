package statedb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGetAbsent(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Get("nope"); ok {
		t.Fatal("absent key found")
	}
	if s.Len() != 0 {
		t.Fatal("empty store has keys")
	}
}

func TestCommitAndGet(t *testing.T) {
	s := NewStore()
	ver := Version{Height: 3, TxIndex: 1}
	s.Commit(WriteSet{"a": []byte("1")}, ver)
	got, gotVer, ok := s.Get("a")
	if !ok || string(got) != "1" || gotVer != ver {
		t.Fatalf("Get = %q, %v, %v", got, gotVer, ok)
	}
}

func TestCommitDelete(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	s.Commit(WriteSet{"a": nil}, Version{Height: 2})
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("abc")}, Version{Height: 1})
	got, _, _ := s.Get("a")
	got[0] = 'X'
	again, _, _ := s.Get("a")
	if string(again) != "abc" {
		t.Fatal("Get aliases internal storage")
	}
}

func TestRangePrefixSorted(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{
		"share/b": []byte("2"),
		"share/a": []byte("1"),
		"other/x": []byte("9"),
		"share/c": []byte("3"),
	}, Version{Height: 1})
	var keys []string
	s.Range("share/", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	want := []string{"share/a", "share/b", "share/c"}
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("1"), "b": []byte("2")}, Version{Height: 1})
	count := 0
	s.Range("", func(string, []byte) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("visited %d", count)
	}
}

func TestSimReadYourWrites(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("old")}, Version{Height: 1})
	sim := s.NewSim()
	sim.Put("a", []byte("new"))
	got, ok := sim.Get("a")
	if !ok || string(got) != "new" {
		t.Fatalf("sim.Get = %q, %v", got, ok)
	}
	sim.Del("a")
	if _, ok := sim.Get("a"); ok {
		t.Fatal("sim sees deleted key")
	}
	// The store itself is untouched until commit.
	if got, _, _ := s.Get("a"); string(got) != "old" {
		t.Fatal("sim leaked into store")
	}
}

func TestSimRangeMergesWrites(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"p/a": []byte("1"), "p/b": []byte("2")}, Version{Height: 1})
	sim := s.NewSim()
	sim.Put("p/c", []byte("3"))
	sim.Del("p/a")
	var got []string
	sim.Range("p/", func(k string, v []byte) bool {
		got = append(got, k+"="+string(v))
		return true
	})
	if len(got) != 2 || got[0] != "p/b=2" || got[1] != "p/c=3" {
		t.Fatalf("range = %v", got)
	}
}

func TestRootChangesWithState(t *testing.T) {
	s := NewStore()
	r0 := s.Root()
	s.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	r1 := s.Root()
	if r0 == r1 {
		t.Fatal("root unchanged after write")
	}
	s.Commit(WriteSet{"a": nil}, Version{Height: 2})
	r2 := s.Root()
	if r2 == r1 {
		t.Fatal("root unchanged after delete")
	}
	// Same contents but different version → different root (versions are
	// part of the commitment, so replicas must agree on them too).
	s2 := NewStore()
	s2.Commit(WriteSet{"a": []byte("1")}, Version{Height: 9})
	s3 := NewStore()
	s3.Commit(WriteSet{"a": []byte("1")}, Version{Height: 1})
	if s2.Root() == s3.Root() {
		t.Fatal("root insensitive to version")
	}
	if s3.Root() != r1 {
		t.Fatal("identical state should give identical root")
	}
}

func TestRootDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(order []int) *Store {
			s := NewStore()
			for _, i := range order {
				s.Commit(WriteSet{fmt.Sprintf("k%d", i): []byte(fmt.Sprintf("v%d", i))},
					Version{Height: uint64(i + 1)})
			}
			return s
		}
		n := 2 + rng.Intn(10)
		fwd := make([]int, n)
		for i := range fwd {
			fwd[i] = i
		}
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		return build(fwd).Root() == build(rev).Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependentAndVersionFaithful(t *testing.T) {
	s := NewStore()
	s.Commit(WriteSet{"a": []byte("1"), "b": []byte("2")}, Version{Height: 1, TxIndex: 3})
	c := s.Clone()
	if c.Root() != s.Root() {
		t.Fatal("clone root differs from source")
	}
	if _, ver, ok := c.Get("a"); !ok || ver != (Version{Height: 1, TxIndex: 3}) {
		t.Fatalf("clone lost the version: %v %v", ver, ok)
	}
	before := s.Root()
	c.Commit(WriteSet{"a": []byte("x"), "b": nil, "c": []byte("3")}, Version{Height: 2})
	if s.Root() != before || s.Len() != 2 {
		t.Fatal("writing the clone changed the source")
	}
	s.Commit(WriteSet{"d": []byte("4")}, Version{Height: 2})
	if _, _, ok := c.Get("d"); ok {
		t.Fatal("writing the source changed the clone")
	}
}
