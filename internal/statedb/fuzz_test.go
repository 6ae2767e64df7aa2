package statedb

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzKeys and fuzzPrefixes are the key space FuzzStateOps draws from:
// nested prefixes, the empty key, and keys that sort across "/".
var (
	fuzzKeys     = []string{"", "a", "a/", "a/b", "a/c", "ab", "b", "b/a", "share/1", "share/10", "share/2", "z"}
	fuzzPrefixes = []string{"", "a", "a/", "b", "share/", "share/1", "y"}
)

// opBytes hands out the fuzz input one byte at a time, then zeros.
type opBytes []byte

func (o *opBytes) next() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

func (o *opBytes) key() string    { return fuzzKeys[int(o.next())%len(fuzzKeys)] }
func (o *opBytes) prefix() string { return fuzzPrefixes[int(o.next())%len(fuzzPrefixes)] }

func (o *opBytes) version() Version {
	return Version{Height: uint64(o.next()), TxIndex: int(o.next())}
}

// value returns b%4 copies of b; zero copies is the empty, non-nil value.
func (o *opBytes) value() []byte {
	b := o.next()
	return bytes.Repeat([]byte{b}, int(b%4))
}

// writeValue is value, or nil (a deletion) one time in five.
func (o *opBytes) writeValue() []byte {
	if o.next()%5 == 0 {
		return nil
	}
	return o.value()
}

// collect runs a Range to its end, or to its stop-th key when stop > 0.
func collect(rng func(string, func(string, []byte) bool), prefix string, stop int) []Entry {
	var out []Entry
	rng(prefix, func(k string, v []byte) bool {
		out = append(out, Entry{Key: k, Value: v})
		return len(out) != stop
	})
	return out
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) || a[i].Version != b[i].Version {
			return false
		}
	}
	return true
}

// sameState checks every read of s against the reference model.
func sameState(t *testing.T, s *Store, ref *refStore) {
	t.Helper()
	if s.Len() != ref.Len() {
		t.Fatalf("Len = %d, reference %d", s.Len(), ref.Len())
	}
	if got, want := s.Export(), ref.Export(); !sameEntries(got, want) {
		t.Fatalf("Export = %v, reference %v", got, want)
	}
	root := s.Root()
	if root != ref.Root() {
		t.Fatal("Root differs from the reference")
	}
	for _, p := range fuzzPrefixes {
		for stop := 0; stop < 3; stop++ {
			if got, want := collect(s.Range, p, stop), collect(ref.Range, p, stop); !sameEntries(got, want) {
				t.Fatalf("Range(%q) stop %d = %v, reference %v", p, stop, got, want)
			}
		}
	}
	for _, k := range fuzzKeys {
		v, ver, ok := s.Get(k)
		rv, rver, rok := ref.Get(k)
		if ok != rok || !bytes.Equal(v, rv) || ver != rver {
			t.Fatalf("Get(%q) = %q %v %v, reference %q %v %v", k, v, ver, ok, rv, rver, rok)
		}
		v, ver, proof, proofRoot, err := s.ProveKey(k)
		rv, rver, rproof, rroot, rerr := ref.ProveKey(k)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ProveKey(%q) error %v, reference %v", k, err, rerr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(v, rv) || ver != rver || proofRoot != rroot || proofRoot != root || !reflect.DeepEqual(proof, rproof) {
			t.Fatalf("ProveKey(%q) differs from the reference", k)
		}
		if !VerifyKeyProof(root, k, v, ver, proof) {
			t.Fatalf("proof of %q does not verify", k)
		}
		if VerifyKeyProof(root, k, v, Version{Height: ver.Height + 1, TxIndex: ver.TxIndex}, proof) {
			t.Fatalf("proof of %q verifies under another version", k)
		}
	}
}

// simulate drives one simulation on s and its reference, checks every
// read and the write set, then commits the write set to both.
func simulate(t *testing.T, o *opBytes, s *Store, ref *refStore) {
	t.Helper()
	sim, rsim := s.NewSim(), ref.NewSim()
	for n := o.next() % 8; n > 0; n-- {
		switch o.next() % 4 {
		case 0:
			k, v := o.key(), o.value()
			sim.Put(k, v)
			rsim.Put(k, v)
		case 1:
			k := o.key()
			sim.Del(k)
			rsim.Del(k)
		case 2:
			k := o.key()
			v, ok := sim.Get(k)
			rv, rok := rsim.Get(k)
			if ok != rok || !bytes.Equal(v, rv) {
				t.Fatalf("Sim.Get(%q) = %q %v, reference %q %v", k, v, ok, rv, rok)
			}
		case 3:
			p, stop := o.prefix(), int(o.next()%4)
			if got, want := collect(sim.Range, p, stop), collect(rsim.Range, p, stop); !sameEntries(got, want) {
				t.Fatalf("Sim.Range(%q) stop %d = %v, reference %v", p, stop, got, want)
			}
		}
	}
	if !reflect.DeepEqual(sim.Writes(), rsim.writes) {
		t.Fatalf("Sim.Writes = %q, reference %q", sim.Writes(), rsim.writes)
	}
	ver := o.version()
	s.Commit(sim.Writes(), ver)
	ref.Commit(rsim.writes, ver)
}

// FuzzStateOps drives random sequences of commits, clones, export/import
// round trips and simulations on Store and on the reference model, and
// requires every read, the root and every key proof to agree. The
// committed corpus holds the empty value on both paths: staged by a
// simulation (a deletion) and committed directly (a present key).
func FuzzStateOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		o := opBytes(in)
		stores, refs := []*Store{NewStore()}, []*refStore{newRefStore()}
		for len(o) > 0 && len(stores) < 8 {
			i := int(o.next()) % len(stores)
			s, ref := stores[i], refs[i]
			switch o.next() % 4 {
			case 0:
				ws := WriteSet{}
				for n := o.next() % 4; n > 0; n-- {
					ws[o.key()] = o.writeValue()
				}
				ver := o.version()
				s.Commit(ws, ver)
				ref.Commit(ws, ver)
			case 1:
				stores, refs = append(stores, s.Clone()), append(refs, ref.Clone())
			case 2:
				imported := NewStore()
				imported.Import(s.Export())
				stores, refs = append(stores, imported), append(refs, ref.Clone())
			case 3:
				simulate(t, &o, s, ref)
			}
			sameState(t, s, ref)
		}
		for i := range stores {
			sameState(t, stores[i], refs[i])
		}
	})
}
