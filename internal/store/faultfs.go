package store

import (
	"errors"
	"sync"
)

// FaultFS is the deterministic crash-point injection VFS (the disk
// sibling of p2p/faultnet): it behaves like a MemFS while journaling
// every write and sync in a single global byte stream, and can then
// materialize "what would the disk hold if the process had died at
// byte N" as a fresh MemFS — with the write straddling N torn, with
// unsynced bytes dropped, or with a bit flipped. The crash sweep test
// walks every interesting N across a real commit history and asserts
// each survivor either recovers to a state that verifies against the
// on-chain root or detects the corruption and heals by resync.
//
// Crashes are modeled post hoc rather than by actually killing
// goroutines: the journal totally orders all durable-state mutations,
// so "die at byte N" is exactly "apply the journal prefix of length N"
// — deterministic, replayable, and sweepable offset by offset.
type FaultFS struct {
	mu    sync.Mutex
	inner *MemFS
	ops   []faultOp
	total int64 // journaled write-payload bytes so far
	// failAfter, when >= 0, makes any write that would push the journal
	// past that byte fail (live error-path injection).
	failAfter int64
	// failReads, when set, names the file every read of fails.
	failReads string
}

// faultOp is one journaled mutation.
type faultOp struct {
	kind   byte // 'w' write, 's' sync, 't' truncate
	file   string
	off    int64  // write: file offset; truncate: new size
	data   []byte // write payload
	gstart int64  // write: global journal offset of data[0]
}

// CrashMode selects how SurvivorAt models the crash.
type CrashMode int

const (
	// CrashTorn applies the journal prefix up to byte N; the write
	// straddling N is applied partially (a torn last write). Everything
	// after is lost.
	CrashTorn CrashMode = iota
	// CrashDropUnsynced applies the prefix up to byte N and then drops,
	// per file, every byte written after that file's last Sync — the
	// adversarial page-cache model where nothing unsynced survives.
	CrashDropUnsynced
	// CrashBitFlip applies the whole journal and flips one bit of the
	// byte written at global journal offset N (silent media corruption).
	CrashBitFlip
)

// NewFaultFS returns an empty fault-injecting filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{inner: NewMemFS(), failAfter: -1}
}

// ErrInjectedWriteFailure is returned by writes past a FailWritesAfter
// threshold.
var ErrInjectedWriteFailure = errors.New("store: injected write failure")

// FailWritesAfter makes every write that would extend the journal past
// byte n fail with ErrInjectedWriteFailure (n < 0 disables). The
// failing write is not journaled and not applied — the model is a
// device that dies mid-flight.
func (f *FaultFS) FailWritesAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfter = n
}

// TotalBytes returns the total journaled write-payload bytes.
func (f *FaultFS) TotalBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// SyncPoints returns the global journal offsets at which a Sync
// occurred — the boundaries guaranteed durable.
func (f *FaultFS) SyncPoints() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var pts []int64
	pos := int64(0)
	for _, op := range f.ops {
		if op.kind == 'w' {
			pos = op.gstart + int64(len(op.data))
		} else if op.kind == 's' {
			pts = append(pts, pos)
		}
	}
	return pts
}

// WriteBoundaries returns the global journal offset at which each
// write begins — the natural crash points for a sweep that wants one
// probe per write plus arbitrary mid-write offsets.
func (f *FaultFS) WriteBoundaries() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b []int64
	for _, op := range f.ops {
		if op.kind == 'w' {
			b = append(b, op.gstart)
		}
	}
	return b
}

// SurvivorAt materializes the durable state after a crash at global
// journal byte n under the given mode, as an independent MemFS the
// caller reopens a Store from.
func (f *FaultFS) SurvivorAt(n int64, mode CrashMode) *MemFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := NewMemFS()
	syncedLen := make(map[string]int64)
	apply := func(file string, off int64, data []byte) {
		buf := out.files[file]
		// Appends only in practice, but honor the recorded offset.
		for int64(len(buf)) < off {
			buf = append(buf, 0)
		}
		buf = append(buf[:off], data...)
		out.files[file] = buf
	}
	for _, op := range f.ops {
		switch op.kind {
		case 'w':
			end := op.gstart + int64(len(op.data))
			switch mode {
			case CrashBitFlip:
				apply(op.file, op.off, op.data)
			default:
				if op.gstart >= n {
					continue
				}
				data := op.data
				if end > n {
					data = data[:n-op.gstart] // torn write
				}
				apply(op.file, op.off, data)
			}
		case 's':
			// Sync placement only matters under CrashDropUnsynced,
			// handled in the second pass below.
		case 't':
			sz := op.off
			if cur, ok := out.files[op.file]; ok && int64(len(cur)) > sz {
				out.files[op.file] = cur[:sz:sz]
			}
		}
	}
	if mode == CrashDropUnsynced {
		// Second pass: find each file's length at its last sync before n
		// and truncate the survivor back to it.
		pos := int64(0)
		lenAt := make(map[string]int64)
		for _, op := range f.ops {
			switch op.kind {
			case 'w':
				pos = op.gstart + int64(len(op.data))
				if pos <= n {
					if l := op.off + int64(len(op.data)); l > lenAt[op.file] {
						lenAt[op.file] = l
					}
				}
			case 's':
				if pos <= n {
					syncedLen[op.file] = lenAt[op.file]
				}
			case 't':
				if pos <= n {
					if op.off < lenAt[op.file] {
						lenAt[op.file] = op.off
					}
					if op.off < syncedLen[op.file] {
						syncedLen[op.file] = op.off
					}
				}
			}
		}
		for file, data := range out.files {
			keep := syncedLen[file]
			if int64(len(data)) > keep {
				out.files[file] = data[:keep:keep]
			}
		}
	}
	if mode == CrashBitFlip {
		for _, op := range f.ops {
			if op.kind != 'w' {
				continue
			}
			end := op.gstart + int64(len(op.data))
			if n >= op.gstart && n < end {
				fileOff := op.off + (n - op.gstart)
				if data, ok := out.files[op.file]; ok && fileOff < int64(len(data)) {
					data[fileOff] ^= 1 << uint(n%8)
				}
				break
			}
		}
	}
	return out
}

// ErrInjectedReadFailure is returned by reads of a FailReadsOf file.
var ErrInjectedReadFailure = errors.New("store: injected read failure")

// FailReadsOf makes every read of the named file fail with
// ErrInjectedReadFailure ("" disables): a device error on read, with
// the file itself intact.
func (f *FaultFS) FailReadsOf(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads = name
}

// --- FS interface ---

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if _, err := f.inner.OpenAppend(name); err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.inner.Open(name); err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name}, nil
}

func (f *FaultFS) List() ([]string, error) { return f.inner.List() }

func (f *FaultFS) Remove(name string) error {
	// Removal is not journaled (the store never removes live log files);
	// apply directly.
	return f.inner.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	f.ops = append(f.ops, faultOp{kind: 't', file: name, off: size})
	f.mu.Unlock()
	return f.inner.Truncate(name, size)
}

type faultFile struct {
	fs   *FaultFS
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	if fs.failAfter >= 0 && fs.total+int64(len(p)) > fs.failAfter {
		fs.mu.Unlock()
		return 0, ErrInjectedWriteFailure
	}
	off := fs.inner.write(f.name, p)
	fs.ops = append(fs.ops, faultOp{
		kind: 'w', file: f.name, off: off,
		data: append([]byte(nil), p...), gstart: fs.total,
	})
	fs.total += int64(len(p))
	fs.mu.Unlock()
	return len(p), nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	fail := f.fs.failReads == f.name
	f.fs.mu.Unlock()
	if fail {
		return 0, ErrInjectedReadFailure
	}
	inner, err := f.fs.inner.Open(f.name)
	if err != nil {
		return 0, err
	}
	return inner.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.ops = append(f.fs.ops, faultOp{kind: 's', file: f.name})
	f.fs.mu.Unlock()
	return nil
}

func (f *faultFile) Close() error { return nil }

func (f *faultFile) Size() (int64, error) {
	inner, err := f.fs.inner.Open(f.name)
	if err != nil {
		return 0, err
	}
	return inner.Size()
}
