package store

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// OpenMemory returns a store over a fresh in-memory filesystem — the
// memory backend: same code paths, no durability.
func OpenMemory() *Store {
	s, err := Open(Options{FS: NewMemFS()})
	if err != nil {
		// A fresh MemFS cannot fail to open.
		panic(err)
	}
	return s
}

// MemFS is the in-memory FS: the store's "memory" backend, and the
// durable-state model FaultFS materializes survivors into. Safe for
// concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// Clone returns a deep copy (survivor materialization, test forking).
func (m *MemFS) Clone() *MemFS {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := NewMemFS()
	for name, data := range m.files {
		out.files[name] = append([]byte(nil), data...)
	}
	return out
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("store: %s: %w", name, os.ErrNotExist)
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return fmt.Errorf("store: %s: %w", name, os.ErrNotExist)
	}
	if size < int64(len(data)) {
		m.files[name] = data[:size:size]
	}
	return nil
}

// write appends p to name and returns the offset it landed at.
func (m *MemFS) write(name string, p []byte) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	off := int64(len(m.files[name]))
	m.files[name] = append(m.files[name], p...)
	return off
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.write(f.name, p)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	data := f.fs.files[f.name]
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
func (f *memFile) Size() (int64, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return int64(len(f.fs.files[f.name])), nil
}
