package statedb

import "medshare/internal/reldb/pmap"

// Entry is one exported world-state key: value plus the version that
// last wrote it. The durable store checkpoints the full state as a
// sorted []Entry on clean shutdown, and a clean restart imports it
// instead of re-executing the chain.
type Entry struct {
	Key     string  `json:"k"`
	Value   []byte  `json:"v"`
	Version Version `json:"ver"`
}

// Export returns every live key in sorted order, with values copied.
func (s *Store) Export() []Entry {
	m := s.snapshot()
	out := make([]Entry, 0, m.Len())
	m.Ascend(func(k string, e entry) bool {
		out = append(out, Entry{Key: k, Value: append([]byte(nil), e.value...), Version: e.version})
		return true
	})
	return out
}

// Import replaces the entire state with the given entries (values
// copied; of two entries for one key the first is kept). Callers verify
// the result against an expected Root before trusting it.
func (s *Store) Import(entries []Entry) {
	t := pmap.NewTransient[entry](shapeSeed)
	for _, e := range entries {
		t.Insert(e.Key, entry{value: append([]byte(nil), e.Value...), version: e.Version})
	}
	m := t.Freeze()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = m
}
