//go:build unix

package storage

import (
	"strings"
	"testing"

	"optcc/internal/core"
)

// TestDoubleOpenLock pins the flock double-open protection: a second live
// disk backend on the same data dir must fail fast with a clear error,
// and the lock must come free on Close — and on poison, which models the
// dead process whose flock the kernel releases.
func TestDoubleOpenLock(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{"x": 1})

	if _, err := NewDisk(Config{Dir: dir}); err == nil {
		t.Fatal("second NewDisk on a live data dir succeeded")
	} else if !strings.Contains(err.Error(), "locked by another live disk backend") {
		t.Fatalf("double-open error does not explain itself: %v", err)
	}
	if _, err := OpenDisk(Config{Dir: dir}); err == nil {
		t.Fatal("OpenDisk on a live data dir succeeded")
	}

	// Close releases the lock; recovery may proceed.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if got := r.State()["x"]; got != 1 {
		t.Fatalf("recovered x = %d, want 1", got)
	}

	// Poison releases it too: the in-process crash sweeps depend on a
	// poisoned (never Closed) store not wedging its directory.
	efs := NewErrFS(OSFS{})
	dir2 := t.TempDir()
	d2, err := NewDisk(Config{Dir: dir2, FS: efs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d2.Reset(core.DB{"x": 1})
	step := core.Step{Var: "x", Kind: core.Write, Fn: func([]core.Value) core.Value { return 2 }}
	if err := d2.ApplyStep(5, step); err != nil {
		t.Fatal(err)
	}
	efs.FailAt(efs.Ops() + 1) // the commit record's append
	d2.Commit(5)
	if got := d2.State()["x"]; got != 1 {
		t.Fatalf("armed fault did not fire: x = %d after the failed commit, want 1", got)
	}
	if d2.Err() == nil {
		t.Fatal("store not poisoned")
	}
	r2, err := OpenDisk(Config{Dir: dir2})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	r2.Close()
	r.Close()
}
