package storage

// The crash-recovery torture harness. Three layers, in increasing realism:
//
//  1. In-process injection sweep (TestCrashRecoveryEveryInjectionPoint):
//     run a self-describing workload against the disk backend on an ErrFS,
//     crash at EVERY countable operation index in turn, recover with the
//     real filesystem and assert the recovery invariant each time.
//  2. Transient-fault sweeps (TestTransientFaultRecovery): FailAt and
//     ShortWriteAt instead of a full crash — the store poisons itself
//     (sticky error) and recovery must still be exact.
//  3. Subprocess kill-and-restart (TestTortureKillRestart): re-exec the
//     test binary as a child that commits forever, SIGKILL it at a random
//     moment — including possibly mid-recovery — recover, verify, repeat.
//
// The recovery invariant asserted everywhere: the recovered state equals
// the serial replay (core.Exec) of exactly the committed transactions; any
// transaction whose commit was synced before the fault MUST be in that
// set; no uncommitted or torn write is ever visible; and recovery
// converges — a second OpenDisk reports no truncation and the identical
// state.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"optcc/internal/core"
)

// tortureVarA/B name transaction i's two marker variables. Every
// transaction writes both to i+1, which makes the on-disk state
// self-describing: the committed set is readable off the recovered
// database, and a half-visible transaction is an atomicity violation.
func tortureVarA(i int) core.Var { return core.Var(fmt.Sprintf("t%03d.a", i)) }
func tortureVarB(i int) core.Var { return core.Var(fmt.Sprintf("t%03d.b", i)) }

// tortureSystem builds the n-transaction self-describing system.
func tortureSystem(n int) *core.System {
	sys := &core.System{Name: "torture"}
	for i := 0; i < n; i++ {
		val := core.Value(i + 1)
		fn := func([]core.Value) core.Value { return val }
		sys.Txs = append(sys.Txs, core.Transaction{
			Name: fmt.Sprintf("t%d", i),
			Steps: []core.Step{
				{Var: tortureVarA(i), Kind: core.Write, Fn: fn},
				{Var: tortureVarB(i), Kind: core.Write, Fn: fn},
			},
		})
	}
	return sys.Normalize()
}

var tortureInit = core.DB{"base": 42}

// runTortureWorkload drives the system's transactions serially against d
// (FsyncAlways, so every successful Commit is durable) and returns the
// transactions that committed with no durability error — the set whose
// survival recovery must guarantee. It stops at the first fault.
func runTortureWorkload(d *Disk, sys *core.System) (synced []int) {
	for tx := range sys.Txs {
		for _, step := range sys.Txs[tx].Steps {
			if err := d.ApplyStep(tx, step); err != nil {
				d.Rollback(tx)
				return synced
			}
		}
		d.Commit(tx)
		if d.Err() != nil {
			return synced
		}
		synced = append(synced, tx)
	}
	return synced
}

// tortureGroupSize is how many transactions the group torture mode
// commits per GroupSync.
const tortureGroupSize = 3

// runGroupTortureWorkload drives the system's transactions serially against
// d (FsyncGroup) in groups of tortureGroupSize, with one GroupSync after
// each group, and returns the members of every group whose GroupSync
// returned nil — the must-survive set. A group's records reach the file in
// that GroupSync's one write, so a fault there fails the whole group. It
// stops at the first fault.
func runGroupTortureWorkload(d *Disk, sys *core.System) (synced []int) {
	for start := 0; start < len(sys.Txs); start += tortureGroupSize {
		end := min(start+tortureGroupSize, len(sys.Txs))
		for tx := start; tx < end; tx++ {
			for _, step := range sys.Txs[tx].Steps {
				if err := d.ApplyStep(tx, step); err != nil {
					d.Rollback(tx)
					return synced
				}
			}
			d.Commit(tx)
		}
		if d.GroupSync() != nil {
			return synced
		}
		for tx := start; tx < end; tx++ {
			synced = append(synced, tx)
		}
	}
	return synced
}

// tortureMode is one way to drive the torture workload: a fsync policy,
// the runner that returns the must-survive set under it, and how many
// transactions share one log write. "buffered" commits one transaction at
// a time under FsyncAlways; "group" commits in groups under FsyncGroup, one
// write and one sync per group.
type tortureMode struct {
	name     string
	policy   FsyncPolicy
	run      func(d *Disk, sys *core.System) []int
	perWrite int
}

var tortureModes = []tortureMode{
	{name: "buffered", policy: FsyncAlways, run: runTortureWorkload, perWrite: 1},
	{name: "group", policy: FsyncGroup, run: runGroupTortureWorkload, perWrite: tortureGroupSize},
}

// checkRecovered opens dir with the real filesystem and asserts the full
// recovery invariant. synced is the must-survive set; label names the
// failing injection point. Returns the recovered committed set.
func checkRecovered(t *testing.T, label, dir string, sys *core.System, synced []int) []int {
	t.Helper()
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	state := r.State()
	stats := r.DurabilityStats()
	r.Close()

	// Derive the committed set from the markers; reject torn transactions
	// and stray values on the way.
	var committed []int
	for i := range sys.Txs {
		a, b := state[tortureVarA(i)], state[tortureVarB(i)]
		want := core.Value(i + 1)
		switch {
		case a == want && b == want:
			committed = append(committed, i)
		case a == 0 && b == 0:
			// never committed — fine
		default:
			t.Fatalf("%s: torn transaction %d visible after recovery: a=%d b=%d", label, i, a, b)
		}
	}
	// Every synced commit must have survived.
	inCommitted := make(map[int]bool, len(committed))
	for _, i := range committed {
		inCommitted[i] = true
	}
	for _, i := range synced {
		if !inCommitted[i] {
			t.Fatalf("%s: durably committed transaction %d lost by recovery (recovered set %v)", label, i, committed)
		}
	}
	// A fault can land inside Reset itself, before the init snapshot was
	// durable. Then — and only then — recovering an empty database is
	// correct: the store was never initialized, so nothing may have
	// committed and nothing may be visible.
	if state["base"] == 0 {
		if len(synced) != 0 || len(committed) != 0 {
			t.Fatalf("%s: init snapshot lost but %d transactions recovered", label, len(committed))
		}
		for v, val := range state {
			if val != 0 {
				t.Fatalf("%s: init snapshot lost but %s=%d visible", label, v, val)
			}
		}
		return committed
	}
	// The recovered state must equal the serial replay of the committed
	// transactions, in commit order.
	replay, err := core.ExecSerialOrder(sys, committed, tortureInit)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	if !state.Equal(replay) {
		t.Fatalf("%s: recovered state != committed replay\n  recovered %v\n  replay    %v", label, state, replay)
	}
	// Convergence: the second pass must be clean and identical.
	r2, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: second recovery failed: %v", label, err)
	}
	state2 := r2.State()
	stats2 := r2.DurabilityStats()
	r2.Close()
	if stats2.WALTruncated != 0 {
		t.Fatalf("%s: recovery did not converge: second pass still truncated (first pass truncated=%d)", label, stats.WALTruncated)
	}
	if !state2.Equal(state) {
		t.Fatalf("%s: second recovery diverged\n  first  %v\n  second %v", label, state, state2)
	}
	return committed
}

// tortureOps runs the workload fault-free on an ErrFS in mode m and returns
// the total countable operations — the size of the injection-point space.
func tortureOps(t *testing.T, m tortureMode, sys *core.System) int64 {
	t.Helper()
	efs := NewErrFS(OSFS{})
	d, err := NewDisk(Config{Dir: t.TempDir(), FS: efs, Fsync: m.policy})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	if got := len(m.run(d, sys)); got != len(sys.Txs) {
		t.Fatalf("fault-free run committed %d of %d", got, len(sys.Txs))
	}
	d.Close()
	return efs.Ops()
}

// TestCrashRecoveryEveryInjectionPoint is the exhaustive sweep: for every
// operation index the workload performs, crash there (all later ops fail
// with ErrCrashed, the crashing write persisting only a torn prefix) and
// assert the recovery invariant. The sweep runs once per torture mode:
// subtest "buffered" commits one transaction per write and sync, subtest
// "group" three per GroupSync, whose one write a crash may tear after any
// whole record.
func TestCrashRecoveryEveryInjectionPoint(t *testing.T) {
	for _, m := range tortureModes {
		t.Run(m.name, func(t *testing.T) {
			sys := tortureSystem(10)
			total := tortureOps(t, m, sys)
			if total < int64(len(sys.Txs)/m.perWrite) {
				t.Fatalf("suspiciously few injection points: %d", total)
			}
			for k := int64(1); k <= total; k++ {
				dir := t.TempDir()
				efs := NewErrFS(OSFS{})
				d, err := NewDisk(Config{Dir: dir, FS: efs, Fsync: m.policy})
				if err != nil {
					t.Fatal(err)
				}
				efs.CrashAt(k)
				d.Reset(tortureInit)
				synced := m.run(d, sys)
				// No Close: the process "died". Recover from the real files.
				checkRecovered(t, fmt.Sprintf("crash@%d", k), dir, sys, synced)
			}
		})
	}
}

// TestTransientFaultRecovery sweeps the one-shot injection points: a
// failed write/sync (FailAt) and a torn write (ShortWriteAt). The store
// poisons itself — the workload stops — and recovery must still be exact:
// nothing synced is lost, nothing torn is admitted. The sweep runs once
// per torture mode, like TestCrashRecoveryEveryInjectionPoint.
func TestTransientFaultRecovery(t *testing.T) {
	for _, m := range tortureModes {
		t.Run(m.name, func(t *testing.T) {
			sys := tortureSystem(10)
			total := tortureOps(t, m, sys)
			for k := int64(1); k <= total; k += 3 { // sample a third of the space
				for _, fault := range []string{"fail", "short"} {
					dir := t.TempDir()
					efs := NewErrFS(OSFS{})
					d, err := NewDisk(Config{Dir: dir, FS: efs, Fsync: m.policy})
					if err != nil {
						t.Fatal(err)
					}
					if fault == "fail" {
						efs.FailAt(k)
					} else {
						efs.ShortWriteAt(k)
					}
					d.Reset(tortureInit)
					synced := m.run(d, sys)
					d.Close()
					checkRecovered(t, fmt.Sprintf("%s@%d", fault, k), dir, sys, synced)
				}
			}
		})
	}
}

// TestWALTornTailRecovery truncates the tail of the active segment after a
// clean run: the last commit record becomes torn, recovery must stop at
// the last valid record, refuse the torn commit, and report WALTruncated.
func TestWALTornTailRecovery(t *testing.T) {
	sys := tortureSystem(10)
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	if got := len(runTortureWorkload(d, sys)); got != 10 {
		t.Fatalf("committed %d of 10", got)
	}
	d.Close()

	last := newestSegment(t, dir)
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Transaction 9's commit record lost its tail: it must come back as a
	// loser; 0..8 were synced earlier and must survive.
	committed := checkRecovered(t, "torn-tail", dir, sys, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	for _, i := range committed {
		if i == 9 {
			t.Fatalf("torn commit of transaction 9 admitted by recovery")
		}
	}

	// WALTruncated must have been reported by the truncating pass.
	r, err := OpenDisk(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestWALTruncatedStat pins the stat itself: a torn tail reports
// WALTruncated=1 on the recovering open and 0 once recovered.
func TestWALTruncatedStat(t *testing.T) {
	sys := tortureSystem(5)
	dir := t.TempDir()
	d, _ := NewDisk(Config{Dir: dir, Fsync: FsyncAlways})
	d.Reset(tortureInit)
	runTortureWorkload(d, sys)
	d.Close()
	last := newestSegment(t, dir)
	info, _ := os.Stat(last)
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ds := r.DurabilityStats(); ds.WALTruncated != 1 {
		t.Fatalf("WALTruncated = %d after torn-tail recovery, want 1", ds.WALTruncated)
	}
	r.Close()
	r2, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ds := r2.DurabilityStats(); ds.WALTruncated != 0 {
		t.Fatalf("WALTruncated = %d on clean reopen, want 0", ds.WALTruncated)
	}
	r2.Close()
}

// TestSegmentCorruptionRecovery flips a byte in the middle of a sealed
// (non-tail) segment: recovery must stop at the corruption, discard every
// later segment, and still satisfy the invariant for the admitted prefix.
func TestSegmentCorruptionRecovery(t *testing.T) {
	sys := tortureSystem(60)
	dir := t.TempDir()
	// Tiny segments force several sealed files.
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	if got := len(runTortureWorkload(d, sys)); got != 60 {
		t.Fatalf("committed %d of 60", got)
	}
	d.Close()

	segs := listSegments(t, dir)
	if len(segs) < 4 {
		t.Fatalf("only %d segments; corruption test needs a middle one", len(segs))
	}
	victim := segs[len(segs)/2]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Nothing after the corrupted record is guaranteed; the invariant
	// machinery verifies atomicity, replay equality and convergence for
	// whatever prefix survived. The corruption must cost us something but
	// not everything before the victim segment.
	committed := checkRecovered(t, "segment-corruption", dir, sys, nil)
	if len(committed) == 60 {
		t.Fatalf("corrupted segment recovered all 60 transactions")
	}
	if len(committed) == 0 {
		t.Fatalf("corruption in a middle segment wiped the whole database")
	}
	// The committed set must be a prefix: commits were sequential, so a
	// gap would mean recovery admitted a record beyond the corruption.
	for j, i := range committed {
		if i != j {
			t.Fatalf("recovered set has a gap beyond the corruption: %v", committed)
		}
	}
}

// TestRecoveryLeftoverCompactionTmp: a recovery killed between creating its
// compaction snapshot's temp file and renaming it leaves that file behind.
// The next OpenDisk writes the same temp name, renames it away, and must
// not then try to unlink it again from its listing.
func TestRecoveryLeftoverCompactionTmp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	d.Close()
	if segs := listSegments(t, dir); len(segs) != 1 || filepath.Base(segs[0]) != segName(1) {
		t.Fatalf("segments after Reset and Close: %v, want [%s]", segs, segName(1))
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery over a leftover compaction temp file: %v", err)
	}
	defer r.Close()
	if got := r.State(); !got.Equal(tortureInit) {
		t.Fatalf("recovered %v, want %v", got, tortureInit)
	}
}

// newestSegment returns the path of the newest log segment in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := listSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

// listSegments returns the sorted segment paths in dir.
func listSegments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs
}

// gateSyncer is a GroupSyncer double whose GroupSync blocks until the test
// supplies a result — the handle for assembling multi-member groups
// deterministically.
type gateSyncer struct {
	Noop
	entered chan struct{}
	result  chan error
}

func (g *gateSyncer) GroupSync() error {
	g.entered <- struct{}{}
	return <-g.result
}

// TestGroupCommitFsyncFailure is the silent-durability-loss regression
// test: when a group's fsync fails, EVERY member of that group —
// leader and followers alike — must be reported failed through OnFail,
// and the release callback must still run so the runtime can free locks.
func TestGroupCommitFsyncFailure(t *testing.T) {
	gs := &gateSyncer{entered: make(chan struct{}), result: make(chan error)}
	var mu sync.Mutex
	var failed, released [][]int
	errBoom := errors.New("fsync: boom")

	gc := NewGroupCommitter(gs, func(txs []int) {
		mu.Lock()
		released = append(released, append([]int(nil), txs...))
		mu.Unlock()
	})
	gc.OnFail(func(txs []int, err error) {
		if !errors.Is(err, errBoom) {
			t.Errorf("OnFail error = %v, want errBoom", err)
		}
		mu.Lock()
		failed = append(failed, append([]int(nil), txs...))
		mu.Unlock()
	})

	done := make(chan struct{})
	go func() {
		gc.Enqueue(1) // becomes the driver, blocks in GroupSync
		close(done)
	}()
	<-gs.entered  // driver committed tx 1, now inside the group fsync
	gc.Enqueue(2) // followers: returned immediately, the driver owns them
	gc.Enqueue(3)
	gs.result <- errBoom // group {1} fails
	<-gs.entered         // driver drains the follower group {2,3}
	gs.result <- errBoom // it fails too
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 2 || len(failed[0]) != 1 || failed[0][0] != 1 {
		t.Fatalf("failure groups = %v, want [[1] [2 3]]", failed)
	}
	group2 := append([]int(nil), failed[1]...)
	sort.Ints(group2)
	if len(group2) != 2 || group2[0] != 2 || group2[1] != 3 {
		t.Fatalf("follower failure group = %v, want both followers [2 3]", failed[1])
	}
	if len(released) != 2 {
		t.Fatalf("release ran %d times, want 2 (locks must free even on failure)", len(released))
	}
}

// TestGroupCommitFsyncFailureDisk is the same property end to end: a real
// Disk under FsyncGroup whose group fsync hits an injected fault.
func TestGroupCommitFsyncFailureDisk(t *testing.T) {
	efs := NewErrFS(OSFS{})
	d, err := NewDisk(Config{Dir: t.TempDir(), FS: efs, Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{"x": 1})
	applyTx(t, d, 7, []walWrite{{v: "x", val: 9}})

	var failed []int
	gc := NewGroupCommitter(d, nil)
	gc.OnFail(func(txs []int, err error) {
		if !errors.Is(err, ErrInjected) {
			t.Errorf("OnFail error = %v, want ErrInjected", err)
		}
		failed = append(failed, txs...)
	})
	// The next ops are: commit-record write, then the group fsync — fail
	// the fsync.
	efs.FailAt(efs.Ops() + 2)
	gc.Enqueue(7)
	if len(failed) != 1 || failed[0] != 7 {
		t.Fatalf("failed = %v, want [7]", failed)
	}
	if d.Err() == nil {
		t.Fatal("disk backend not poisoned by failed group fsync")
	}
	if ds := d.DurabilityStats(); ds.SyncFailures != 1 {
		t.Fatalf("SyncFailures = %d, want 1", ds.SyncFailures)
	}
}

// TestSnapshotGCRecovery (race-enabled in CI's multiversion stress): the
// multiversion KV garbage-collects superseded versions up to the pinned
// snapshot horizon while a durable disk backend logs the same commits.
// After a restart — recover the disk, rebuild the KV from the recovered
// state — pinned snapshot readers must see exactly the recovered committed
// values: GC'd versions must not resurrect, recovered values must not be
// stale.
func TestSnapshotGCRecovery(t *testing.T) {
	const (
		writers  = 4
		iters    = 200
		extraMax = 20 * iters
		readers  = 3
	)
	dir := t.TempDir()
	init := core.DB{}
	for g := 0; g < writers; g++ {
		init[core.Var(fmt.Sprintf("v%d", g))] = 0
	}
	kv := NewKV(Config{Shards: 4, Recycle: true, SnapshotSlots: writers + readers, ValueSize: 64})
	kv.Reset(init)
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(init)

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(slot int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := kv.SnapshotAcquire(slot)
				for g := 0; g < writers; g++ {
					kv.SnapshotRead(slot, core.Var(fmt.Sprintf("v%d", g)), snap)
				}
				kv.SnapshotRelease(slot)
			}
		}(writers + rd)
	}
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			v := core.Var(fmt.Sprintf("v%d", g))
			// After iters writes, keep rewriting the final value (bounded)
			// while the readers still run, until the GC has collected: a
			// reader preempted while pinned at an early snapshot can hold
			// the horizon below every retired version for the whole first
			// phase.
			for i := 1; i <= iters || (i <= extraMax && kv.VersionsGCed() == 0); i++ {
				tx := g*100000 + i
				val := core.Value(min(i, iters))
				if i > iters {
					runtime.Gosched() // let a pinned reader release
				}
				step := core.Step{Var: v, Kind: core.Write, Fn: func([]core.Value) core.Value { return val }}
				if err := kv.ApplyStep(tx, step); err != nil {
					t.Error(err)
					return
				}
				if err := d.ApplyStep(tx, step); err != nil {
					t.Error(err)
					return
				}
				kv.Commit(tx)
				d.Commit(tx)
				if i%16 == 0 {
					if err := d.GroupSync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// Writers finish; read the GC count while the readers still run, so it
	// counts only collections made with snapshot readers active. Then stop
	// the readers.
	writerWG.Wait()
	gced := kv.VersionsGCed()
	close(stop)
	readerWG.Wait()
	if gced == 0 {
		t.Fatal("no versions GC'd; the horizon machinery was not exercised")
	}

	// Restart: sync, snapshot the live state, recover from disk.
	if err := d.GroupSync(); err != nil {
		t.Fatal(err)
	}
	live := d.State()
	d.Close()
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recovered := r.State()
	r.Close()
	if !recovered.Equal(live) {
		t.Fatalf("recovered state != pre-restart state\n  live      %v\n  recovered %v", live, recovered)
	}
	for g := 0; g < writers; g++ {
		if got := recovered[core.Var(fmt.Sprintf("v%d", g))]; got != iters {
			t.Fatalf("recovered v%d = %d, want %d", g, got, iters)
		}
	}

	// Rebuild the multiversion store from the recovered state: a pinned
	// snapshot must see exactly the recovered values — no GC'd version of
	// the old incarnation resurrected, nothing stale.
	kv2 := NewKV(Config{Shards: 4, Recycle: true, SnapshotSlots: 4, ValueSize: 64})
	kv2.Reset(recovered)
	snap := kv2.SnapshotAcquire(0)
	for v, want := range recovered {
		if got := kv2.SnapshotRead(0, v, snap); got != want {
			t.Fatalf("post-recovery snapshot read %s = %d, want %d", v, got, want)
		}
	}
	kv2.SnapshotRelease(0)
}

// childEnvDir is how the kill-and-restart parent passes the store to its
// re-exec'd child.
const childEnvDir = "OPTCC_TORTURE_DIR"

// TestTortureChild is the subprocess body: it recovers the store, finds
// where the previous incarnation stopped, and commits sequentially
// (FsyncAlways) until it is killed. Not a test when run directly.
func TestTortureChild(t *testing.T) {
	dir := os.Getenv(childEnvDir)
	if dir == "" {
		t.Skip("torture child body; driven by TestTortureKillRestart")
	}
	cfg := Config{Dir: dir, Fsync: FsyncAlways}
	if os.Getenv("OPTCC_TORTURE_CKPT") == "1" {
		// Tiny segments and an aggressive threshold keep the background
		// checkpointer constantly mid-flight, so the parent's SIGKILL
		// regularly lands inside an active checkpoint — capture, file write,
		// rename, marker, retirement all get their turn under real death.
		cfg.SegmentBytes = 2048
		cfg.CheckpointBytes = 4096
	}
	d, err := OpenDisk(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: recover: %v\n", err)
		os.Exit(3)
	}
	state := d.State()
	next := 0
	for state[tortureVarA(next)] != 0 {
		next++
	}
	for i := next; i < next+1_000_000; i++ {
		val := core.Value(i + 1)
		fn := func([]core.Value) core.Value { return val }
		for _, v := range []core.Var{tortureVarA(i), tortureVarB(i)} {
			if err := d.ApplyStep(i, core.Step{Var: v, Kind: core.Write, Fn: fn}); err != nil {
				fmt.Fprintf(os.Stderr, "torture child: apply: %v\n", err)
				os.Exit(3)
			}
		}
		d.Commit(i)
		if err := d.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "torture child: commit: %v\n", err)
			os.Exit(3)
		}
	}
}

// TestTortureKillRestart is the kill-and-restart torture driver: re-exec
// this test binary as a child committing transactions with per-commit
// fsyncs, SIGKILL it at a random point (sometimes mid-recovery — the
// child recovers on startup, and from round 1 on sometimes mid-checkpoint
// — the child runs the background checkpointer on tiny segments), then
// recover here and assert the invariant: the committed set is a gap-free
// prefix that never shrinks, every value matches the serial replay, and
// recovery converges in ≤ 2 passes.
func TestTortureKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture loop; skipped with -short")
	}
	dir := t.TempDir()
	seed, _ := os.LookupEnv("OPTCC_TORTURE_SEED")
	rng := rand.New(rand.NewSource(int64(len(seed)) + 17))
	d, err := NewDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{})
	d.Close()

	prevMax := -1
	const rounds = 5
	for round := 0; round < rounds; round++ {
		ckpt := 0
		if round >= 1 { // round 0 is the checkpoint-free baseline
			ckpt = 1
		}
		cmd := exec.Command(os.Args[0], "-test.run", "TestTortureChild$")
		cmd.Env = append(os.Environ(), childEnvDir+"="+dir,
			fmt.Sprintf("OPTCC_TORTURE_CKPT=%d", ckpt))
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Random kill point: long enough for startup + recovery + some
		// commits, short enough to regularly land mid-activity.
		time.Sleep(time.Duration(30+rng.Intn(150)) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		r, err := OpenDisk(Config{Dir: dir})
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		state := r.State()
		r.Close()

		// The committed set must be a gap-free prefix (the child commits
		// sequentially with synced commits), atomic and value-exact.
		max := -1
		for i := 0; state[tortureVarA(i)] != 0; i++ {
			if a, b := state[tortureVarA(i)], state[tortureVarB(i)]; a != core.Value(i+1) || b != core.Value(i+1) {
				t.Fatalf("round %d: transaction %d recovered torn or wrong: a=%d b=%d", round, i, a, b)
			}
			max = i
		}
		for v, val := range state {
			var i int
			if _, err := fmt.Sscanf(string(v), "t%d.", &i); err == nil && i > max {
				t.Fatalf("round %d: stray write %s=%d beyond committed prefix %d", round, v, val, max)
			}
		}
		if max < prevMax {
			t.Fatalf("round %d: committed prefix shrank: %d -> %d", round, prevMax, max)
		}
		prevMax = max

		// Convergence: second pass clean, identical state.
		r2, err := OpenDisk(Config{Dir: dir})
		if err != nil {
			t.Fatalf("round %d: second recovery failed: %v", round, err)
		}
		if ds := r2.DurabilityStats(); ds.WALTruncated != 0 {
			t.Fatalf("round %d: recovery did not converge (second pass truncated)", round)
		}
		if !r2.State().Equal(state) {
			t.Fatalf("round %d: second recovery diverged", round)
		}
		r2.Close()
	}
	if prevMax < 0 {
		t.Fatal("no child made any progress; the torture loop tested nothing")
	}
}
