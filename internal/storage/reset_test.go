package storage

import (
	"fmt"
	"runtime"
	"testing"

	"optcc/internal/core"
)

// resetInit is a 32-variable initial state with distinct values.
func resetInit() core.DB {
	db := core.DB{}
	for i := 0; i < 32; i++ {
		db[core.Var(fmt.Sprintf("r%d", i))] = core.Value(i * 3)
	}
	return db
}

// resetAllocBytes is the heap a call of fn allocates, averaged over runs.
func resetAllocBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestKVResetReusesTableAndPayloads: a Reset to the variables the store
// already holds keeps the table and rewrites each chain head in place —
// its payload buffer refilled, its older versions dropped — so the store
// equals a freshly loaded one byte for byte and no payload is allocated.
// A Reset to other variables rebuilds the table.
func TestKVResetReusesTableAndPayloads(t *testing.T) {
	const size = 4096
	init := resetInit()
	kv := NewKV(Config{Shards: 4, ValueSize: size})
	kv.Reset(init)
	table := kv.vars
	// A pinned snapshot keeps the GC from unlinking superseded versions,
	// so the chains Reset meets are several versions long.
	kv.SnapshotAcquire(0)
	for tx := 0; tx < 20; tx++ {
		v := core.Var(fmt.Sprintf("r%d", tx%5))
		mustApply(t, kv, tx, upd(v, inc))
		kv.Commit(tx)
	}
	kv.SnapshotRelease(0)
	if kv.vars.Lookup("r0").head.Load().next.Load() == nil {
		t.Fatal("setup: r0's chain has a single version")
	}
	mustApply(t, kv, 99, upd("r7", inc))
	kv.Rollback(99)
	// A damaged payload must not survive Reset either: the fill rewrites
	// every byte, not only the stamped scalar.
	kv.vars.Lookup("r9").head.Load().rec.Payload[100] ^= 0xff

	kv.Reset(init)
	if kv.vars != table {
		t.Fatal("Reset to the same variables rebuilt the table")
	}
	fresh := NewKV(Config{Shards: 4, ValueSize: size})
	fresh.Reset(init)
	if err := sameRecords(kv.Snapshot(), fresh.Snapshot()); err != nil {
		t.Fatalf("reused store differs from a fresh load: %v", err)
	}
	for v := range init {
		head := kv.vars.Lookup(v).head.Load()
		if head.next.Load() != nil || head.begin.Load() != 0 || head.end.Load() != 0 {
			t.Fatalf("%s: reset head keeps older versions or stamps", v)
		}
	}
	if st := kv.Stats(); st.Writes != 0 || st.Rollbacks != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	if per := resetAllocBytes(10, func() { kv.Reset(init) }); per >= size {
		t.Fatalf("a repeated Reset allocates %d B, at least one %d B payload", per, size)
	}

	other := core.DB{"r0": 5, "elsewhere": 6}
	kv.Reset(other)
	if kv.vars == table {
		t.Fatal("Reset to other variables kept the old table")
	}
	if !kv.State().Equal(other) || kv.Get(0, "r1") != 0 {
		t.Fatalf("state after Reset to other variables = %v", kv.State())
	}
}

// TestKVResetAfterUndeclaredWrite: a write to a variable outside the
// loaded state gives it a fallback chain; the next Reset must not keep it.
func TestKVResetAfterUndeclaredWrite(t *testing.T) {
	init := resetInit()
	kv := NewKV(Config{Shards: 2, ValueSize: 64})
	kv.Reset(init)
	kv.Put(1, "stray", 9)
	kv.Commit(1)
	kv.Reset(init)
	if got := kv.State(); !dbEqual(got, init) {
		t.Fatalf("state after Reset = %v, want %v", got, init)
	}
}

// TestDiskResetReusesTable: the disk backend's committed table is kept
// across a Reset to the same variables and rebuilt for other ones (or
// after a commit created a variable), and every Reset still persists its
// baseline: a reopened directory recovers exactly init.
func TestDiskResetReusesTable(t *testing.T) {
	init := resetInit()
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(init)
	table := d.tab.Load()
	applyTx(t, d, 1, []walWrite{{v: "r3", val: 100}})
	d.Commit(1)
	d.Reset(init)
	if d.tab.Load() != table {
		t.Fatal("Reset to the same variables rebuilt the table")
	}
	if got := d.State(); !dbEqual(got, init) {
		t.Fatalf("state after Reset = %v, want %v", got, init)
	}

	applyTx(t, d, 2, []walWrite{{v: "created", val: 7}})
	d.Commit(2)
	d.Reset(init)
	if d.tab.Load() == table {
		t.Fatal("Reset kept a table holding a variable outside init")
	}
	if got := d.State(); !dbEqual(got, init) {
		t.Fatalf("state after Reset = %v, want %v", got, init)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Destroy()
	if got := re.State(); !dbEqual(got, init) {
		t.Fatalf("recovered state = %v, want %v", got, init)
	}
}

// TestBoundResetLoadsByNumber: a store bound to a System and reset to that
// System's shared initial state lays its table out from the System's own
// variable slice and loads it by number; a Reset to a different map over
// the same variables still loads that map's values, and a Reset back to
// the shared state loads the shared values again.
func TestBoundResetLoadsByNumber(t *testing.T) {
	sys := bindSystem()
	shared := sys.InitialState()
	other := core.DB{}
	for i, v := range sys.Vars() {
		other[v] = core.Value(100 + i)
	}
	kv, d := newBindStores(t)
	for _, be := range []Binder{kv, d} {
		be.Bind(sys)
		for _, init := range []core.DB{shared, other, shared, other} {
			be.Reset(init)
			if got := be.State(); !dbEqual(got, init) {
				t.Fatalf("%s: state after Reset = %v, want %v", be.Name(), got, init)
			}
		}
	}
	kv.Reset(shared)
	if !kv.vars.LaidOut(sys.Vars()) {
		t.Fatal("KV: a bound Reset to the shared state did not lay the table out from the System's variables")
	}
	d.Reset(shared)
	if !d.tab.Load().LaidOut(sys.Vars()) {
		t.Fatal("Disk: a bound Reset to the shared state did not lay the table out from the System's variables")
	}
	fresh := NewKV(Config{Shards: 4, ValueSize: 64})
	fresh.Reset(shared)
	if err := sameRecords(kv.Snapshot(), fresh.Snapshot()); err != nil {
		t.Fatalf("bound KV records differ from an unbound load: %v", err)
	}
}
