package storage

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// File is the I/O surface the pager and the WAL write through. It is
// an interface (rather than *os.File) so crash tests can interpose a
// failpoint wrapper that tears writes at arbitrary byte offsets.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
	Size() (int64, error)
}

// OpenFileFunc opens (creating if absent) a file for read/write. The
// default implementation wraps *os.File; tests substitute failpoint
// wrappers through the exported Options hooks.
type OpenFileFunc func(path string) (File, error)

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenOSFile is the default OpenFileFunc.
func OpenOSFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ErrFailpoint is returned by a FailFile once its write budget is
// exhausted: the simulated process "dies" and every later write or
// sync fails.
var ErrFailpoint = errors.New("storage: failpoint triggered (simulated crash)")

// FailBudget is a write budget shared by any number of FailFiles, so
// a multi-file system (index store + WAL + checkpoint log) "dies" at
// one global byte offset in its combined write stream — the closest
// a test can get to pulling the plug on a whole process.
type FailBudget struct {
	mu        sync.Mutex
	remaining int64 // write bytes left before the simulated crash
	failed    atomic.Bool
}

// NewFailBudget allows writeBudget bytes of writes before the
// simulated crash. A negative budget never fails.
func NewFailBudget(writeBudget int64) *FailBudget {
	return &FailBudget{remaining: writeBudget}
}

// Failed reports whether the failpoint has triggered.
func (b *FailBudget) Failed() bool { return b.failed.Load() }

// take consumes up to n bytes: allowed is how many may still be
// written, full whether the whole write fits. A short allowance tears
// the write and trips the failpoint.
func (b *FailBudget) take(n int64) (allowed int64, full bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed.Load() {
		return 0, false
	}
	if b.remaining < 0 {
		return n, true
	}
	if n <= b.remaining {
		b.remaining -= n
		return n, true
	}
	allowed = b.remaining
	b.remaining = 0
	b.failed.Store(true)
	return allowed, false
}

// FailFile wraps a File and tears the write stream after a byte
// budget: the write that crosses the budget is applied only up to the
// boundary (a torn, partial write — exactly what a power cut leaves
// behind) and everything after it fails. Reads keep working so the
// harness can reopen and replay the same handle's underlying file.
type FailFile struct {
	inner File
	b     *FailBudget
}

// NewFailFileShared wraps inner drawing on a shared budget.
func NewFailFileShared(inner File, b *FailBudget) *FailFile {
	return &FailFile{inner: inner, b: b}
}

func (f *FailFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *FailFile) WriteAt(p []byte, off int64) (int, error) {
	allowed, full := f.b.take(int64(len(p)))
	if full {
		return f.inner.WriteAt(p, off)
	}
	// Torn write: apply the prefix that fits the budget, then die.
	n := 0
	if allowed > 0 {
		n, _ = f.inner.WriteAt(p[:allowed], off)
	}
	return n, ErrFailpoint
}

func (f *FailFile) Sync() error {
	if f.b.Failed() {
		return ErrFailpoint
	}
	return f.inner.Sync()
}

func (f *FailFile) Truncate(size int64) error {
	if f.b.Failed() {
		return ErrFailpoint
	}
	return f.inner.Truncate(size)
}

func (f *FailFile) Close() error         { return f.inner.Close() }
func (f *FailFile) Size() (int64, error) { return f.inner.Size() }
