package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"optcc/internal/core"
	"optcc/internal/workload"
)

// bindSystem is a contended executable system: 24 transactions of two to
// four steps over eight variables, skewed toward the first few, so a
// scripted interleaving overwrites and re-reads the same records often.
func bindSystem() *core.System {
	return workload.Random(workload.RandomConfig{NumTxs: 24, MinSteps: 2, MaxSteps: 4, NumVars: 8, Hotspot: 1}, 7)
}

// driveScript runs every transaction of sys on be in one seeded
// interleaving, the way a contended run does: up to four transactions are
// live at once, each step goes to a random live one, and now and then a
// transaction with steps done rolls back and restarts from its first step.
// A transaction commits after its last step. The script depends only on
// sys and seed, never on what the store returns, so two stores driven with
// the same arguments see the same calls. It returns the number of steps
// applied.
func driveScript(t *testing.T, be Backend, sys *core.System, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	next := 0
	var live []int
	done := make([]int, len(sys.Txs)) // steps applied in the current attempt
	steps := 0
	for next < len(sys.Txs) || len(live) > 0 {
		for len(live) < 4 && next < len(sys.Txs) {
			live = append(live, next)
			next++
		}
		k := rng.Intn(len(live))
		tx := live[k]
		if done[tx] > 0 && rng.Intn(6) == 0 {
			be.Rollback(tx)
			done[tx] = 0
			continue
		}
		if err := be.ApplyStep(tx, sys.Txs[tx].Steps[done[tx]]); err != nil {
			t.Fatal(err)
		}
		steps++
		if done[tx]++; done[tx] == len(sys.Txs[tx].Steps) {
			be.Commit(tx)
			live = append(live[:k], live[k+1:]...)
		}
	}
	return steps
}

// byName returns the store's Stats.ByName.
func byName(be Backend) int64 {
	switch s := be.(type) {
	case *KV:
		return s.Stats().ByName
	case *Disk:
		return s.Stats().ByName
	}
	panic("byName: unknown store")
}

// segmentFiles reads every file of dir but the lock file.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		if n == lockFileName {
			continue
		}
		b, err := OSFS{}.ReadFile(segPath(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		out[n] = b
	}
	return out
}

// newBindStores builds a KV and a Disk (in a fresh directory, no fsync)
// for the equivalence tests.
func newBindStores(t *testing.T) (*KV, *Disk) {
	t.Helper()
	d, err := NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return NewKV(Config{Shards: 4, ValueSize: 64, Recycle: true}), d
}

// TestBoundStoreMatchesUnbound drives one System through a store bound to
// it and through an unbound one, in the same interleaving with restarts,
// so every reapplied step after a rollback derives its variable number
// from the transaction's local count afresh. The bound store must find
// every step's record by number (ByName 0) and end exactly where the
// unbound one does: the same state, the same KV records byte for byte,
// byte-identical Disk segment files and the same recovered state. Each
// store runs the script twice, so the second Reset reuses the table.
func TestBoundStoreMatchesUnbound(t *testing.T) {
	sys := bindSystem()
	for seed := int64(1); seed <= 4; seed++ {
		boundKV, boundDisk := newBindStores(t)
		plainKV, plainDisk := newBindStores(t)
		boundKV.Bind(sys)
		boundDisk.Bind(sys)
		for round := 0; round < 2; round++ {
			for _, be := range []Backend{boundKV, boundDisk, plainKV, plainDisk} {
				be.Reset(sys.InitialState())
				steps := driveScript(t, be, sys, seed)
				want := int64(0)
				if be == plainKV || be == plainDisk {
					want = int64(steps)
				}
				if got := byName(be); got != want {
					t.Fatalf("seed %d %s: %d of %d steps found by name, want %d", seed, be.Name(), got, steps, want)
				}
			}
			if kr := boundKV.Stats().Rollbacks + boundDisk.Stats().Rollbacks; kr == 0 {
				t.Fatalf("seed %d: the script rolled nothing back", seed)
			}
			if b, p := boundKV.State(), plainKV.State(); !reflect.DeepEqual(b, p) {
				t.Fatalf("seed %d: bound KV state %v, unbound %v", seed, b, p)
			}
			if !reflect.DeepEqual(boundKV.Snapshot(), plainKV.Snapshot()) {
				t.Fatalf("seed %d: bound and unbound KV records differ", seed)
			}
			if b, p := boundDisk.State(), plainDisk.State(); !reflect.DeepEqual(b, p) {
				t.Fatalf("seed %d: bound Disk state %v, unbound %v", seed, b, p)
			}
		}
		live := boundDisk.State()
		for _, d := range []*Disk{boundDisk, plainDisk} {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
		bf, pf := segmentFiles(t, boundDisk.Dir()), segmentFiles(t, plainDisk.Dir())
		if len(bf) == 0 || len(bf) != len(pf) {
			t.Fatalf("seed %d: %d bound segment files, %d unbound", seed, len(bf), len(pf))
		}
		for n, b := range bf {
			if !bytes.Equal(b, pf[n]) {
				t.Fatalf("seed %d: segment %s differs between the bound and the unbound store", seed, n)
			}
		}
		for _, dir := range []string{boundDisk.Dir(), plainDisk.Dir()} {
			r, err := OpenDisk(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got := r.State()
			r.Close()
			if !reflect.DeepEqual(got, live) {
				t.Fatalf("seed %d: recovered %v, live %v", seed, got, live)
			}
		}
	}
}

// renamed returns sys with every step moved to the next variable of
// sys.Vars (the last to the first): the same shape and variable set, so a
// store reset to either System holds one table, but every step's number
// in sys names another variable than the step's own.
func renamed(sys *core.System) *core.System {
	vars := sys.Vars()
	next := map[core.Var]core.Var{}
	for i, v := range vars {
		next[v] = vars[(i+1)%len(vars)]
	}
	out := &core.System{Name: sys.Name + "-renamed", Txs: make([]core.Transaction, len(sys.Txs))}
	for i, tx := range sys.Txs {
		steps := make([]core.Step, len(tx.Steps))
		for j, st := range tx.Steps {
			st.Var = next[st.Var]
			steps[j] = st
		}
		out.Txs[i] = core.Transaction{Steps: steps}
	}
	return out
}

// TestBoundStoreGuardsForeignSteps binds a store to System A and drives it
// with System B, whose step numbers in A all name other variables of the
// same table. The guard must send every step to the name path (ByName
// counts them all), and the store must end where an unbound store driven
// by B does. Direct Get and Put on the bound store go by name as well: a
// write buffered by Put is read back by a later numbered step of the same
// transaction, and both commit.
func TestBoundStoreGuardsForeignSteps(t *testing.T) {
	a := bindSystem()
	b := renamed(a)
	for seed := int64(1); seed <= 2; seed++ {
		boundKV, boundDisk := newBindStores(t)
		plainKV, plainDisk := newBindStores(t)
		boundKV.Bind(a)
		boundDisk.Bind(a)
		steps := 0
		for _, be := range []Backend{boundKV, boundDisk, plainKV, plainDisk} {
			be.Reset(a.InitialState())
			steps = driveScript(t, be, b, seed)
		}
		for _, pair := range [][2]Backend{{boundKV, plainKV}, {boundDisk, plainDisk}} {
			if bs, ps := pair[0].State(), pair[1].State(); !reflect.DeepEqual(bs, ps) {
				t.Fatalf("seed %d %s: bound to A, driven by B: %v; unbound: %v", seed, pair[0].Name(), bs, ps)
			}
			if got := byName(pair[0]); got != int64(steps) {
				t.Fatalf("seed %d %s: %d of %d foreign steps found by name", seed, pair[0].Name(), got, steps)
			}
		}
	}

	// A write buffered by name, read back by a numbered step; a numbered
	// write, read back by name.
	tx := 0
	for a.Txs[tx].Steps[0].Var == a.Txs[tx].Steps[1].Var {
		tx++
	}
	x, y := a.Txs[tx].Steps[0].Var, a.Txs[tx].Steps[1].Var
	kv, d := newBindStores(t)
	for _, be := range []Binder{kv, d} {
		be.Bind(a)
		be.Reset(a.InitialState())
		be.Put(tx, x, 41)
		if err := be.ApplyStep(tx, core.Step{Var: x, Kind: core.Read}); err != nil {
			t.Fatal(err)
		}
		if err := be.ApplyStep(tx, core.Step{Var: y, Kind: core.Write,
			Fn: func(l []core.Value) core.Value { return l[0] + 1 }}); err != nil {
			t.Fatal(err)
		}
		if n := byName(be); n != 0 {
			t.Fatalf("%s: %d numbered steps after a Put went by name", be.Name(), n)
		}
		if got := be.Get(tx, y); got != 42 {
			t.Fatalf("%s: Get after a numbered write = %d, want 42", be.Name(), got)
		}
		be.Put(tx, "unnumbered", 7)
		be.Commit(tx)
		if s := be.State(); s[x] != 41 || s[y] != 42 || s["unnumbered"] != 7 {
			t.Fatalf("%s: committed %v, want %s=41 %s=42 unnumbered=7", be.Name(), s, x, y)
		}
	}
}

// TestSnapshotReadAtGuardsTheNumber reads every variable of a System by
// its number and by a wrong number: both equal SnapshotRead, and only the
// wrong numbers count as by-name reads.
func TestSnapshotReadAtGuardsTheNumber(t *testing.T) {
	sys := bindSystem()
	kv := NewKV(Config{Shards: 4, ValueSize: 64})
	kv.Reset(sys.InitialState())
	vars := sys.Vars()
	for i, v := range vars {
		kv.Put(0, v, core.Value(100+i))
	}
	kv.Commit(0)
	snap := kv.SnapshotAcquire(3)
	defer kv.SnapshotRelease(3)
	for i, v := range vars {
		want := kv.SnapshotRead(3, v, snap)
		if got := kv.SnapshotReadAt(3, int32(i), v, snap); got != want || got != core.Value(100+i) {
			t.Fatalf("SnapshotReadAt(%d, %s) = %d, want %d", i, v, got, want)
		}
	}
	if n := kv.Stats().ByName; n != 0 {
		t.Fatalf("%d numbered snapshot reads went by name", n)
	}
	for i, v := range vars {
		if got := kv.SnapshotReadAt(3, int32((i+1)%len(vars)), v, snap); got != core.Value(100+i) {
			t.Fatalf("SnapshotReadAt with a wrong number read %d for %s, want %d", got, v, 100+i)
		}
	}
	if got := kv.SnapshotReadAt(3, -1, "absent", snap); got != 0 {
		t.Fatalf("absent variable read %d", got)
	}
	if n := kv.Stats().ByName; n != int64(len(vars))+1 {
		t.Fatalf("ByName = %d after %d misnumbered reads", n, len(vars)+1)
	}
}

// TestKVCommitCollectsEveryRetiredVersion: a transaction that overwrites
// one variable three times retires three versions into one shard; Commit
// collects each shard it retired into once, and that once collects them
// all, beside the version another variable retired.
func TestKVCommitCollectsEveryRetiredVersion(t *testing.T) {
	kv := NewKV(Config{Shards: 4, ValueSize: 64, Recycle: true})
	kv.Reset(core.DB{"x": 0, "y": 0})
	for i := 1; i <= 3; i++ {
		kv.Put(1, "x", core.Value(i))
	}
	kv.Put(1, "y", 9)
	kv.Commit(1)
	if n := kv.VersionsGCed(); n != 4 {
		t.Fatalf("commit collected %d superseded versions, want 4", n)
	}
	if s := kv.State(); s["x"] != 3 || s["y"] != 9 {
		t.Fatalf("state %v", s)
	}
}

// TestTableLayoutIsSorted: whatever map a store is reset to, its table
// lies out in sorted variable order, bound or not.
func TestTableLayoutIsSorted(t *testing.T) {
	sys := bindSystem()
	kv, d := newBindStores(t)
	for _, be := range []Backend{kv, d} {
		be.Reset(sys.InitialState())
	}
	want := sys.Vars()
	var got []core.Var
	kv.vars.Range(func(v core.Var, _ *chain) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KV table order %v, want %v", got, want)
	}
	got = got[:0]
	d.tab.Load().Range(func(v core.Var, _ *diskCell) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Disk table order %v, want %v", got, want)
	}
}
