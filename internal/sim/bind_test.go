package sim

import (
	"testing"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// storeStats is the Stats of a KV or Disk store.
func storeStats(be storage.Backend) storage.Stats {
	switch s := be.(type) {
	case *storage.KV:
		return s.Stats()
	case *storage.Disk:
		return s.Stats()
	}
	panic("storeStats: unknown store")
}

// unboundKV and unboundDisk hide the stores' Bind from Run, so every step
// finds its record by name.
type unboundKV struct{ storage.Backend }
type unboundDisk struct{ storage.DurableBackend }

// TestRunBindsTheStore: Run binds a KV or Disk store to the System it
// runs, so every step finds its record by number (Stats.ByName 0), on a
// re-run of one System, after a switch to another System and back, and
// through contended restarts. The same runs through an unbound store go
// by name on every step, and both leave the committed replay's state.
func TestRunBindsTheStore(t *testing.T) {
	hot := Instantiate(workload.Random(workload.RandomConfig{NumTxs: 16, MinSteps: 2, MaxSteps: 4, NumVars: 6, Hotspot: 1.5}, 3), 96)
	other := Instantiate(workload.Banking(), 48)
	disk, err := storage.NewDisk(storage.Config{Dir: t.TempDir(), Fsync: storage.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	kv := storage.NewKV(storage.Config{Shards: 4, ValueSize: 64})
	var aborts int64
	for _, store := range []struct {
		be, unbound storage.Backend
	}{{kv, unboundKV{kv}}, {disk, unboundDisk{disk}}} {
		for i, sys := range []*core.System{hot, hot, other, hot} {
			for _, be := range []storage.Backend{store.be, store.unbound} {
				if be == store.unbound {
					store.be.(storage.Binder).Bind(nil) // undo the bound run's binding
				}
				m, err := Run(Config{System: sys, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
					Backend: be, Users: 8, Seed: int64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				if m.Committed != sys.NumTxs() {
					t.Fatalf("%s run %d: committed %d of %d", be.Name(), i, m.Committed, sys.NumTxs())
				}
				if err := check.Replay(sys, m.Output, be.State()); err != nil {
					t.Fatalf("%s run %d: %v", be.Name(), i, err)
				}
				aborts += int64(m.Aborts)
				st := storeStats(store.be)
				want := int64(0)
				if be == store.unbound {
					want = st.Reads // every step reads its variable once
				}
				if st.ByName != want || st.Reads == 0 {
					t.Fatalf("%s run %d (bound=%v): %d of %d step reads found their record by name, want %d",
						be.Name(), i, be == store.be, st.ByName, st.Reads, want)
				}
			}
		}
	}
	if aborts == 0 {
		t.Fatal("no run restarted a transaction; reapplied steps untested")
	}
}

// TestRunSnapshotReadsByNumber: mv's read-only fast path reads every
// snapshot record by its variable number, and the writers' steps find
// theirs by number too.
func TestRunSnapshotReadsByNumber(t *testing.T) {
	inst := Instantiate(workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: 64, Steps: 3, ReadFrac: 0.9, Vars: 16, HotFrac: 0.8, HotVars: 3,
	}, 23), 64)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 128})
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentMV(4), Backend: be, Users: 8, Seed: 5, MaxRestarts: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if m.SnapshotReads == 0 {
		t.Fatal("no snapshot reads: the read-only path did not run")
	}
	if st := be.Stats(); st.ByName != 0 {
		t.Fatalf("%d snapshot reads or steps found their record by name", st.ByName)
	}
	if err := check.Replay(inst, m.Output, be.State()); err != nil {
		t.Fatal(err)
	}
}
