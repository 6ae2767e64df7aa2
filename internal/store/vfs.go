package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The VFS seam: the log layer talks to storage exclusively through FS
// and File, so the same code runs over a real directory (DirFS), in
// memory (MemFS — the "memory" backend and the unit-test substrate),
// or under deterministic crash injection (FaultFS).

// File is one append-only log file. Writes always append; reads are
// random-access. Implementations must support concurrent ReadAt.
type File interface {
	io.Writer
	io.ReaderAt
	// Sync makes previously written bytes durable (a crash after Sync
	// returns cannot lose them).
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
	Close() error
}

// FS is the filesystem surface the store needs: a flat namespace of
// append-only files.
type FS interface {
	// OpenAppend opens name for appending, creating it empty if absent.
	OpenAppend(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Truncate cuts a file to size bytes (used once, at open, to drop a
	// torn tail).
	Truncate(name string, size int64) error
}

// DirFS is the production FS: one OS directory holding the log files.
type DirFS struct {
	dir string
}

// NewDirFS returns a DirFS rooted at dir, creating the directory if
// needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

// syncDir fsyncs the directory so newly created file entries survive a
// crash (a file whose data is synced but whose directory entry is not
// can vanish on some filesystems).
func (d *DirFS) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

func (d *DirFS) OpenAppend(name string) (File, error) {
	path := filepath.Join(d.dir, filepath.Base(name))
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if os.IsNotExist(statErr) {
		d.syncDir()
	}
	return &osFile{f: f}, nil
}

func (d *DirFS) Open(name string) (File, error) {
	f, err := os.Open(filepath.Join(d.dir, filepath.Base(name)))
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (d *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *DirFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(d.dir, filepath.Base(name)), size)
}

// osFile adapts *os.File to the File interface.
type osFile struct{ f *os.File }

func (o *osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o *osFile) Sync() error                             { return o.f.Sync() }
func (o *osFile) Close() error                            { return o.f.Close() }
func (o *osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
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
