package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the filesystem surface the disk backend writes through. It is
// deliberately tiny — append-only files, whole-file reads, directory
// listing, atomic rename — because everything the log-structured store does
// reduces to these operations, and a small surface is what makes the fault
// injector (ErrFS) able to enumerate every injection point. OSFS is the
// real implementation; tests wrap it in ErrFS to fail, torn-write, or
// crash the store at any chosen operation.
type FS interface {
	// Create opens name for appending, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent and keeping
	// existing content.
	Append(name string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname (POSIX rename).
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// List returns the file names (not paths) in dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
}

// File is an open append-only file: sequential writes, durability via Sync.
type File interface {
	Write(p []byte) (int, error)
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// OSFS implements FS on the real filesystem via package os.
type OSFS struct{}

var _ FS = OSFS{}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
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

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Injection errors. ErrInjected is a one-shot transient failure (FailAt,
// ShortWriteAt); ErrCrashed is terminal — once a crash point is reached
// every subsequent operation on the ErrFS fails with it, modeling a
// process that has lost its storage and can only recover by reopening.
var (
	ErrInjected = errors.New("errfs: injected failure")
	ErrCrashed  = errors.New("errfs: crashed")
)

// ErrFS wraps an FS and injects faults at chosen operation indices. The
// operations it counts and can fail are the ones the durability protocols
// depend on — Write, Sync, Rename and Remove — numbered from 1 in call
// order across all files. (Rename and Remove joined the catalogue with the
// checkpointer: its tmp→rename publish and its segment unlinks are
// protocol steps a crash must be able to interrupt, exactly like a torn
// commit append.) The catalogue of injection points (DESIGN.md
// "Durability"):
//
//   - FailAt(n): operation n returns ErrInjected once; later operations
//     succeed. Models a transient I/O error.
//   - ShortWriteAt(n): write n persists only the first half of its buffer,
//     then returns ErrInjected (a torn write); a Sync, Rename or Remove at
//     n just fails.
//   - CrashAt(n): operation n writes a partial prefix (if a write) and
//     fails with ErrCrashed, as does everything after it. Models a
//     process crash with a torn last write, not a power loss: every
//     earlier write, synced or not, and every earlier create, rename and
//     remove survive.
//
// Ops() reports the operations performed so far, which is how the torture
// harness discovers the total number of injection points for a workload
// (run once fault-free, then crash at every index in turn).
type ErrFS struct {
	inner FS

	mu      sync.Mutex
	ops     int64
	failAt  int64
	shortAt int64
	crashAt int64
	crashed bool
}

var _ FS = (*ErrFS)(nil)

// NewErrFS wraps inner with no faults armed.
func NewErrFS(inner FS) *ErrFS { return &ErrFS{inner: inner} }

// FailAt arms a one-shot failure of operation n (1-based; 0 disarms).
func (e *ErrFS) FailAt(n int64) { e.mu.Lock(); e.failAt = n; e.mu.Unlock() }

// ShortWriteAt arms a torn write at operation n (1-based; 0 disarms).
func (e *ErrFS) ShortWriteAt(n int64) { e.mu.Lock(); e.shortAt = n; e.mu.Unlock() }

// CrashAt arms a crash at operation n (1-based; 0 disarms): that operation
// and every later one fail with ErrCrashed.
func (e *ErrFS) CrashAt(n int64) { e.mu.Lock(); e.crashAt = n; e.mu.Unlock() }

// Ops returns the number of countable operations (writes, syncs, renames
// and removes) performed so far.
func (e *ErrFS) Ops() int64 { e.mu.Lock(); defer e.mu.Unlock(); return e.ops }

// Crashed reports whether a crash point has been reached.
func (e *ErrFS) Crashed() bool { e.mu.Lock(); defer e.mu.Unlock(); return e.crashed }

// op accounts one data operation and returns the fault to apply:
// errCrash, errFail, errShort (torn write) or nil.
type faultKind int

const (
	faultNone faultKind = iota
	faultFail
	faultShort
	faultCrash
)

func (e *ErrFS) op() faultKind {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return faultCrash
	}
	e.ops++
	switch {
	case e.crashAt > 0 && e.ops >= e.crashAt:
		e.crashed = true
		return faultCrash
	case e.failAt > 0 && e.ops == e.failAt:
		return faultFail
	case e.shortAt > 0 && e.ops == e.shortAt:
		return faultShort
	}
	return faultNone
}

// metaOK gates the control-plane operations (create/list/read): they are
// not counted as injection points, but once crashed they fail too.
func (e *ErrFS) metaOK() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	return nil
}

func (e *ErrFS) Create(name string) (File, error) {
	if err := e.metaOK(); err != nil {
		return nil, err
	}
	f, err := e.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f}, nil
}

func (e *ErrFS) Append(name string) (File, error) {
	if err := e.metaOK(); err != nil {
		return nil, err
	}
	f, err := e.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f}, nil
}

func (e *ErrFS) ReadFile(name string) ([]byte, error) {
	if err := e.metaOK(); err != nil {
		return nil, err
	}
	return e.inner.ReadFile(name)
}

func (e *ErrFS) Rename(oldname, newname string) error {
	switch e.op() {
	case faultCrash:
		return ErrCrashed
	case faultFail, faultShort:
		return ErrInjected
	}
	return e.inner.Rename(oldname, newname)
}

func (e *ErrFS) Remove(name string) error {
	switch e.op() {
	case faultCrash:
		return ErrCrashed
	case faultFail, faultShort:
		return ErrInjected
	}
	return e.inner.Remove(name)
}

func (e *ErrFS) List(dir string) ([]string, error) {
	if err := e.metaOK(); err != nil {
		return nil, err
	}
	return e.inner.List(dir)
}

func (e *ErrFS) MkdirAll(dir string) error {
	if err := e.metaOK(); err != nil {
		return err
	}
	return e.inner.MkdirAll(dir)
}

// errFile routes Write and Sync through the injector.
type errFile struct {
	fs *ErrFS
	f  File
}

func (ef *errFile) Write(p []byte) (int, error) {
	switch ef.fs.op() {
	case faultCrash:
		// A crash mid-write: a prefix of the buffer reaches the file.
		n := len(p) / 2
		if n > 0 {
			ef.f.Write(p[:n])
		}
		return n, ErrCrashed
	case faultFail:
		return 0, ErrInjected
	case faultShort:
		n := len(p) / 2
		if n > 0 {
			if _, err := ef.f.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, ErrInjected
	}
	return ef.f.Write(p)
}

func (ef *errFile) Sync() error {
	switch ef.fs.op() {
	case faultCrash:
		return ErrCrashed
	case faultFail, faultShort:
		return ErrInjected
	}
	return ef.f.Sync()
}

func (ef *errFile) Close() error { return ef.f.Close() }

// segPath joins dir and a segment file name through the real separator —
// shared by disk.go and recovery.go.
func segPath(dir, name string) string { return filepath.Join(dir, name) }
