package storage

// Checkpoint torture and contract tests. The crash sweeps extend the
// torture harness (torture_test.go) through every checkpointer step:
// Rename and Remove are countable ErrFS operations, so CrashAt visits
// mid-checkpoint-file-write, pre-rename, post-rename-pre-marker,
// post-marker-pre-unlink and mid-unlink, and checkRecovered asserts the
// full recovery invariant at each. The rest pins the operational
// contract: retirement bounds the on-disk footprint and recovery work,
// transient faults retry, persistent faults degrade gracefully without
// touching the commit path, and a poisoned store never unlinks again.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"optcc/internal/core"
)

// dropLock simulates process death for the in-process crash sweeps. The
// kernel releases a dead process's flock, but a "crashed" store object in
// these tests is still alive in this process — without this it would
// wedge its directory against the recovering OpenDisk. (The WAL crash
// paths release the lock themselves via poisonLocked; a crash confined to
// the checkpoint path deliberately leaves the store healthy, so only the
// simulated death releases it.)
func dropLock(d *Disk) {
	d.mu.Lock()
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
	d.mu.Unlock()
}

// runCkptTortureWorkload is runTortureWorkload with an explicit checkpoint
// every other commit. Checkpoint errors are deliberately ignored: the
// graceful-degradation contract says a failed checkpoint must not disturb
// the commit path, so the workload keeps going until the log itself
// poisons the store.
func runCkptTortureWorkload(d *Disk, sys *core.System) (synced []int) {
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
		if tx%2 == 1 {
			d.Checkpoint()
		}
	}
	return synced
}

// ckptTortureConfig: segments small enough that every checkpoint has
// something to retire, no background loop (explicit checkpoints keep the
// operation sequence deterministic for the injection sweep).
func ckptTortureConfig(dir string, fs FS) Config {
	return Config{Dir: dir, FS: fs, Fsync: FsyncAlways, SegmentBytes: 192}
}

// TestCheckpointCrashRecoveryEveryInjectionPoint is the exhaustive sweep
// through the checkpointer: the workload checkpoints every other commit,
// and the crash lands at EVERY countable operation in turn — including
// the checkpoint file's writes and sync, its publishing rename, the WAL
// marker append and sync, and each retirement unlink. Recovery must be
// exact at all of them. The sweep runs as subtest "buffered", the disk's
// one execution mode.
func TestCheckpointCrashRecoveryEveryInjectionPoint(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		sys := tortureSystem(8)
		// Fault-free run sizes the injection space.
		efs := NewErrFS(OSFS{})
		d, err := NewDisk(ckptTortureConfig(t.TempDir(), efs))
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(tortureInit)
		if got := len(runCkptTortureWorkload(d, sys)); got != len(sys.Txs) {
			t.Fatalf("fault-free run committed %d of %d", got, len(sys.Txs))
		}
		if ds := d.DurabilityStats(); ds.Checkpoints == 0 || ds.SegmentsRetired == 0 {
			t.Fatalf("fault-free run exercised no retirement: %+v", ds)
		}
		d.Close()
		total := efs.Ops()

		for k := int64(1); k <= total; k++ {
			dir := t.TempDir()
			efs := NewErrFS(OSFS{})
			d, err := NewDisk(ckptTortureConfig(dir, efs))
			if err != nil {
				t.Fatal(err)
			}
			efs.CrashAt(k)
			d.Reset(tortureInit)
			synced := runCkptTortureWorkload(d, sys)
			// No Close: the process "died". Recover from the real files.
			dropLock(d)
			checkRecovered(t, fmt.Sprintf("ckpt-crash@%d", k), dir, sys, synced)
		}
	})
}

// TestCheckpointTransientFaultSweep is the FailAt/ShortWriteAt analogue:
// a one-shot fault anywhere in the checkpointed workload. Faults on the
// log poison the store; faults on the checkpoint path merely fail that
// checkpoint. Either way recovery must be exact. The sweep runs as
// subtest "buffered", the disk's one execution mode.
func TestCheckpointTransientFaultSweep(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		sys := tortureSystem(8)
		efs := NewErrFS(OSFS{})
		d, err := NewDisk(ckptTortureConfig(t.TempDir(), efs))
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(tortureInit)
		runCkptTortureWorkload(d, sys)
		d.Close()
		total := efs.Ops()

		for k := int64(1); k <= total; k += 3 { // sample a third of the space
			for _, fault := range []string{"fail", "short"} {
				dir := t.TempDir()
				efs := NewErrFS(OSFS{})
				d, err := NewDisk(ckptTortureConfig(dir, efs))
				if err != nil {
					t.Fatal(err)
				}
				if fault == "fail" {
					efs.FailAt(k)
				} else {
					efs.ShortWriteAt(k)
				}
				d.Reset(tortureInit)
				synced := runCkptTortureWorkload(d, sys)
				d.Close()
				checkRecovered(t, fmt.Sprintf("ckpt-%s@%d", fault, k), dir, sys, synced)
			}
		}
	})
}

// TestCheckpointRetiresSegments pins the tentpole's visible effect: after
// a checkpoint, every segment wholly behind the anchor is gone from disk,
// the live state is untouched, and recovery from what remains is exact.
func TestCheckpointRetiresSegments(t *testing.T) {
	sys := tortureSystem(40)
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	if got := len(runTortureWorkload(d, sys)); got != 40 {
		t.Fatalf("committed %d of 40", got)
	}
	before := len(listSegments(t, dir))
	if before < 5 {
		t.Fatalf("only %d segments before checkpoint; nothing to retire", before)
	}
	live := d.State()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := len(listSegments(t, dir))
	if after >= before {
		t.Fatalf("checkpoint retired nothing: %d segments before, %d after", before, after)
	}
	if after > 1 {
		t.Fatalf("post-checkpoint footprint is %d segments, want just the active one", after)
	}
	if !d.State().Equal(live) {
		t.Fatalf("checkpoint disturbed the live state")
	}
	ds := d.DurabilityStats()
	if ds.Checkpoints != 1 || ds.SegmentsRetired == 0 || ds.CheckpointBytes == 0 {
		t.Fatalf("stats after checkpoint: %+v", ds)
	}
	if ds.CheckpointerOff {
		t.Fatalf("CheckpointerOff after a successful checkpoint")
	}
	d.Close()
	checkRecovered(t, "retire", dir, sys, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
}

// TestCheckpointLiveTransactions is the "fuzzy" in fuzzy checkpoint: a
// checkpoint captured while a transaction is mid-flight must leave that
// transaction's buffered writes out of the snapshot — they are in neither
// the table nor the log yet — and must not lose them either: they reach
// the log only in the commit record, after the checkpoint's anchor.
// Whatever the transaction then does — crash-never-ends, abort, or commit
// — recovery must resolve it correctly from the checkpoint plus the tail.
func TestCheckpointLiveTransactions(t *testing.T) {
	for _, outcome := range []string{"crash", "abort", "commit"} {
		t.Run(outcome, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			d.Reset(core.DB{"x": 1, "y": 2})
			// Committed baseline the checkpoint must preserve.
			applyTx(t, d, 1, []walWrite{{v: "x", val: 10}})
			d.Commit(1)
			// Transaction 2 is live across the checkpoint: two buffered
			// writes to y, nothing committed.
			step := func(val core.Value) core.Step {
				return core.Step{Var: "y", Kind: core.Write, Fn: func([]core.Value) core.Value { return val }}
			}
			if err := d.ApplyStep(2, step(20)); err != nil {
				t.Fatal(err)
			}
			if err := d.ApplyStep(2, step(21)); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want := core.DB{"x": 10, "y": 2} // live tx 2 is a loser...
			switch outcome {
			case "crash":
				// ...the process dies with tx 2 still open: nothing to do.
			case "abort":
				d.Rollback(2)
			case "commit":
				d.Commit(2)
				want = core.DB{"x": 10, "y": 21}
			}
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			// No Close on "crash"; the others close cleanly.
			if outcome == "crash" {
				dropLock(d)
			} else {
				d.Close()
			}
			r, err := OpenDisk(Config{Dir: dir})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer r.Close()
			if got := r.State(); !got.Equal(want) {
				t.Fatalf("recovered %v, want %v", got, want)
			}
		})
	}
}

// ckptFailFS fails operations that touch checkpoint files ("ckpt-" names)
// while letting the log through untouched — the selective injector for
// the graceful-degradation tests. remaining < 0 means fail forever.
type ckptFailFS struct {
	FS
	mu        sync.Mutex
	remaining int
	failures  int
}

var errCkptInjected = errors.New("ckptfail: injected checkpoint-path failure")

func (c *ckptFailFS) hit(name string) bool {
	if !strings.HasPrefix(filepath.Base(name), ckptPrefix) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining == 0 {
		return false
	}
	if c.remaining > 0 {
		c.remaining--
	}
	c.failures++
	return true
}

func (c *ckptFailFS) Create(name string) (File, error) {
	if c.hit(name) {
		return nil, errCkptInjected
	}
	return c.FS.Create(name)
}

func (c *ckptFailFS) Rename(oldname, newname string) error {
	if c.hit(newname) {
		return errCkptInjected
	}
	return c.FS.Rename(oldname, newname)
}

// fillDisk appends committed transactions until the WAL has grown by at
// least bytes (as seen by WALBytes), failing the test on any store error.
func fillDisk(t *testing.T, d *Disk, from int, bytes int64) int {
	t.Helper()
	start := d.DurabilityStats().WALBytes
	tx := from
	for d.DurabilityStats().WALBytes < start+bytes {
		v := core.Var(fmt.Sprintf("fill%04d", tx%512))
		val := core.Value(tx)
		if err := d.ApplyStep(tx, core.Step{Var: v, Kind: core.Write, Fn: func([]core.Value) core.Value { return val }}); err != nil {
			t.Fatalf("fill apply: %v", err)
		}
		d.Commit(tx)
		if err := d.Err(); err != nil {
			t.Fatalf("fill commit: %v", err)
		}
		tx++
	}
	return tx
}

// waitStats polls DurabilityStats until cond holds or the deadline hits.
func waitStats(t *testing.T, d *Disk, what string, cond func(DurabilityStats) bool) DurabilityStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds := d.DurabilityStats()
		if cond(ds) {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, ds)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointBackgroundThreshold pins the background trigger: crossing
// CheckpointBytes of appended WAL wakes the checkpointer without any
// explicit call, and the footprint stays bounded while commits continue —
// after Close it is smaller on disk than the same commits leave with the
// checkpointer off (CheckpointBytes 0, the control).
func TestCheckpointBackgroundThreshold(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1024, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	next := fillDisk(t, d, 0, 16*1024)
	waitStats(t, d, "a background checkpoint", func(ds DurabilityStats) bool {
		return ds.Checkpoints >= 1
	})
	// Keep committing; retirement must keep the segment count bounded.
	fillDisk(t, d, next, 16*1024)
	waitStats(t, d, "retirement to catch up", func(ds DurabilityStats) bool {
		return ds.SegmentsRetired >= 4
	})
	if ds := d.DurabilityStats(); ds.CheckpointerOff {
		t.Fatalf("CheckpointerOff with a healthy filesystem: %+v", ds)
	}
	live := d.State()
	d.Close()
	checkpointed := footprint(t, dir)
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.State().Equal(live) {
		t.Fatalf("recovered state diverged from live state")
	}

	controlDir := t.TempDir()
	c, err := NewDisk(Config{Dir: controlDir, Fsync: FsyncAlways, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.Reset(tortureInit)
	fillDisk(t, c, fillDisk(t, c, 0, 16*1024), 16*1024)
	c.Close()
	if control := footprint(t, controlDir); checkpointed >= control {
		t.Fatalf("checkpointed footprint %dB not below the unchecked control's %dB", checkpointed, control)
	}
}

// footprint sums the sizes of a store's files in dir — segments and
// checkpoint files; the advisory lock file holds no state.
func footprint(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		if e.Name() == lockFileName {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCheckpointBaselineIsNotGrowth: the snapshot that opens a log —
// Reset's initial database, or OpenDisk's compaction of the recovered
// state — is what a checkpoint would copy, not log growth. After either,
// however large the baseline, no checkpoint is requested until
// CheckpointBytes of transaction traffic has been appended. The background
// loop is stopped so that its kick channel can be observed directly.
func TestCheckpointBaselineIsNotGrowth(t *testing.T) {
	const thresh = 4096
	big := core.DB{}
	for i := 0; i < 1024; i++ {
		big[core.Var(fmt.Sprintf("base%04d", i))] = core.Value(i)
	}
	// check runs on a store whose loop is already stopped (before the
	// baseline was written, so no kick can have been consumed).
	check := func(label string, d *Disk) {
		t.Helper()
		defer d.Close()
		if len(d.ckptKick) != 0 {
			t.Fatalf("%s: the baseline snapshot requested a checkpoint", label)
		}
		next := fillDisk(t, d, 0, thresh-64)
		if len(d.ckptKick) != 0 {
			t.Fatalf("%s: checkpoint requested before CheckpointBytes of traffic", label)
		}
		fillDisk(t, d, next, 64)
		if len(d.ckptKick) == 0 {
			t.Fatalf("%s: no checkpoint requested after CheckpointBytes of traffic", label)
		}
	}
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, CheckpointBytes: thresh})
	if err != nil {
		t.Fatal(err)
	}
	d.stopCheckpointer()
	d.Reset(big)
	if ds := d.DurabilityStats(); ds.WALBytes < thresh {
		t.Fatalf("baseline snapshot is %dB, want >= CheckpointBytes %d", ds.WALBytes, thresh)
	}
	check("Reset", d)
	// OpenDisk compacts the same large state into its opening snapshot
	// without any append, so nothing can kick before the loop is stopped.
	r, err := OpenDisk(Config{Dir: dir, CheckpointBytes: thresh})
	if err != nil {
		t.Fatal(err)
	}
	r.stopCheckpointer()
	check("OpenDisk", r)
}

// TestCheckpointTransientFaultRetry: the first checkpoint attempts fail
// (checkpoint path only), the background loop retries with backoff, and a
// later attempt lands. The store stays healthy throughout.
func TestCheckpointTransientFaultRetry(t *testing.T) {
	cfs := &ckptFailFS{FS: OSFS{}, remaining: 2}
	d, err := NewDisk(Config{Dir: t.TempDir(), FS: cfs, Fsync: FsyncAlways, SegmentBytes: 1024, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Reset(tortureInit)
	fillDisk(t, d, 0, 8*1024)
	ds := waitStats(t, d, "a checkpoint after transient faults", func(ds DurabilityStats) bool {
		return ds.Checkpoints >= 1
	})
	if ds.CheckpointFailures != 2 {
		t.Fatalf("CheckpointFailures = %d, want exactly the 2 injected", ds.CheckpointFailures)
	}
	if ds.CheckpointerOff {
		t.Fatalf("transient faults disabled the checkpointer: %+v", ds)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("checkpoint faults poisoned the store: %v", err)
	}
}

// TestCheckpointPersistentFailureDegrades is the ENOSPC-shaped contract:
// when every checkpoint attempt fails, the checkpointer backs off, gives
// up, and surfaces CheckpointerOff — while commits keep succeeding, the
// store stays unpoisoned, and recovery of the (unretired) log is exact.
func TestCheckpointPersistentFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	cfs := &ckptFailFS{FS: OSFS{}, remaining: -1}
	d, err := NewDisk(Config{Dir: dir, FS: cfs, Fsync: FsyncAlways, SegmentBytes: 1024, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	next := fillDisk(t, d, 0, 8*1024)
	ds := waitStats(t, d, "the checkpointer to disable itself", func(ds DurabilityStats) bool {
		return ds.CheckpointerOff
	})
	if ds.Checkpoints != 0 || ds.SegmentsRetired != 0 {
		t.Fatalf("persistently failing checkpointer reported progress: %+v", ds)
	}
	if ds.CheckpointFailures < int64(ckptMaxFailures) {
		t.Fatalf("CheckpointFailures = %d before disabling, want >= %d", ds.CheckpointFailures, ckptMaxFailures)
	}
	// The commit path must not have noticed.
	if err := d.Err(); err != nil {
		t.Fatalf("checkpoint failures poisoned the store: %v", err)
	}
	fillDisk(t, d, next, 4*1024)
	live := d.State()
	d.Close()
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.State().Equal(live) {
		t.Fatalf("recovered state diverged after degraded run")
	}
}

// TestPoisonedStoreNoUnlinks is the sticky-error hygiene regression test:
// once the log poisons the store, Checkpoint refuses with the sticky
// error, GroupSync keeps returning it, and — crucially — no file is
// unlinked anymore: the poisoned log is the only evidence recovery has.
func TestPoisonedStoreNoUnlinks(t *testing.T) {
	sys := tortureSystem(30)
	dir := t.TempDir()
	efs := NewErrFS(OSFS{})
	d, err := NewDisk(Config{Dir: dir, FS: efs, Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(tortureInit)
	synced := runTortureWorkload(d, sys)
	step := core.Step{Var: "poison", Kind: core.Write, Fn: func([]core.Value) core.Value { return 1 }}
	if err := d.ApplyStep(900, step); err != nil {
		t.Fatal(err)
	}
	efs.FailAt(efs.Ops() + 1) // poison the very next log write: the commit record
	d.Commit(900)
	if got := d.State()["poison"]; got != 0 {
		t.Fatalf("armed fault did not fail the write: poison = %d after the failed commit", got)
	}
	sticky := d.Err()
	if sticky == nil {
		t.Fatal("store not poisoned")
	}
	files := func() []string {
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range names {
			out = append(out, e.Name())
		}
		return out
	}
	before := files()
	if err := d.Checkpoint(); !errors.Is(err, sticky) {
		t.Fatalf("Checkpoint on poisoned store = %v, want the sticky %v", err, sticky)
	}
	if err := d.GroupSync(); !errors.Is(err, sticky) {
		t.Fatalf("GroupSync on poisoned store = %v, want the sticky %v", err, sticky)
	}
	after := files()
	if len(before) != len(after) {
		t.Fatalf("poisoned store changed the directory: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("poisoned store changed the directory: %v -> %v", before, after)
		}
	}
	checkRecovered(t, "poisoned", dir, sys, synced)
}

// TestCheckpointRecoveryBounded is the bounded-recovery contract: with
// periodic checkpoints, the on-disk segment count and the bytes recovery
// replays stay bounded no matter how much history the store has committed
// — while the same workload without checkpointing grows both monotonically.
func TestCheckpointRecoveryBounded(t *testing.T) {
	const rounds, bytesPerRound = 8, 8 * 1024
	run := func(checkpoint bool) (maxSegs int, recovered int64) {
		dir := t.TempDir()
		d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(tortureInit)
		next := 0
		for r := 0; r < rounds; r++ {
			next = fillDisk(t, d, next, bytesPerRound)
			if checkpoint {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(listSegments(t, dir)); n > maxSegs {
				maxSegs = n
			}
		}
		live := d.State()
		d.Close()
		r, err := OpenDisk(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.State().Equal(live) {
			t.Fatal("recovered state diverged")
		}
		return maxSegs, r.DurabilityStats().RecoveryBytes
	}
	boundedSegs, boundedBytes := run(true)
	growingSegs, growingBytes := run(false)
	// One round's worth of segments plus slack: the bound must not scale
	// with rounds. The unchecked run keeps every segment it ever sealed.
	segBound := bytesPerRound/1024 + 3
	if boundedSegs > segBound {
		t.Fatalf("checkpointed run peaked at %d segments, want <= %d (footprint not bounded)", boundedSegs, segBound)
	}
	if growingSegs <= segBound {
		t.Fatalf("control run peaked at %d segments; the workload is too small to distinguish growth", growingSegs)
	}
	if boundedBytes*2 >= growingBytes {
		t.Fatalf("RecoveryBytes %d with checkpoints vs %d without: replay not meaningfully bounded", boundedBytes, growingBytes)
	}
}

// ckptHookFS runs one-shot hooks inside the checkpoint-file protocol:
// onCreate just before a checkpoint file is created, onSync just after it
// is synced — the last moment before the publishing rename — and onRename
// just before that rename. Every other file passes straight through. The
// hooks run on the checkpointing goroutine — the tests call Checkpoint
// directly, with no background loop — which is what lets a test land a
// Reset (or inspect the store) deterministically inside one window.
type ckptHookFS struct {
	FS
	onCreate, onSync, onRename func()
}

// take returns the hook in *slot and disarms it.
func (h *ckptHookFS) take(slot *func()) func() {
	hook := *slot
	*slot = nil
	if hook == nil {
		return func() {}
	}
	return hook
}

func (h *ckptHookFS) Create(name string) (File, error) {
	if !strings.HasPrefix(filepath.Base(name), ckptPrefix) {
		return h.FS.Create(name)
	}
	h.take(&h.onCreate)()
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &ckptHookFile{File: f, h: h}, nil
}

func (h *ckptHookFS) Rename(oldname, newname string) error {
	if strings.HasPrefix(filepath.Base(newname), ckptPrefix) {
		h.take(&h.onRename)()
	}
	return h.FS.Rename(oldname, newname)
}

type ckptHookFile struct {
	File
	h *ckptHookFS
}

func (f *ckptHookFile) Sync() error {
	err := f.File.Sync()
	f.h.take(&f.h.onSync)()
	return err
}

// ckptFiles lists the checkpoint files (published or tmp) in dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ckptPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCheckpointSupersededByReset pins the Reset-abandons-checkpoint
// contract in both windows a Reset can land in: before the checkpoint file
// exists (so it would be created inside the fresh incarnation's directory)
// and after it is written and synced but before it is published. Either
// way the attempt is abandoned — counted neither as a completed checkpoint
// nor as a failure, since it published nothing usable for the new
// incarnation's log — no checkpoint file of the dead generation survives
// where recovery could pick it, and the fresh incarnation's segments
// survive untouched.
func TestCheckpointSupersededByReset(t *testing.T) {
	for _, window := range []string{"before-create", "before-publish"} {
		t.Run(window, func(t *testing.T) {
			dir := t.TempDir()
			hfs := &ckptHookFS{FS: OSFS{}}
			d, err := NewDisk(Config{Dir: dir, FS: hfs, Fsync: FsyncAlways, SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			d.Reset(tortureInit)
			fillDisk(t, d, 0, 4*1024) // several sealed segments to tempt retirement
			reset := func() { d.Reset(tortureInit) }
			if window == "before-create" {
				hfs.onCreate = reset
			} else {
				hfs.onSync = reset
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("superseded checkpoint must not report an error: %v", err)
			}
			ds := d.DurabilityStats()
			if ds.Checkpoints != 0 {
				t.Fatalf("superseded checkpoint counted as completed: %+v", ds)
			}
			if ds.CheckpointFailures != 0 {
				t.Fatalf("superseded checkpoint counted as failed: %+v", ds)
			}
			if ds.SegmentsRetired != 0 {
				t.Fatalf("dead generation's checkpoint retired segments: %+v", ds)
			}
			if segs := listSegments(t, dir); len(segs) != 1 || filepath.Base(segs[0]) != segName(1) {
				t.Fatalf("fresh incarnation's log damaged: segments %v, want [%s]", segs, segName(1))
			}
			if files := ckptFiles(t, dir); len(files) != 0 {
				t.Fatalf("dead generation's checkpoint left %v in the fresh incarnation's directory", files)
			}
			if err := d.Err(); err != nil {
				t.Fatalf("superseded checkpoint poisoned the store: %v", err)
			}
			// The new incarnation must still work end to end, with as much
			// log as the dead one had: its segment numbers reach the dead
			// checkpoint's anchor, so a stale checkpoint file would now be
			// eligible for recovery.
			fillDisk(t, d, 0, 4*1024)
			live := d.State()
			d.Close()
			r, err := OpenDisk(Config{Dir: dir})
			if err != nil {
				t.Fatalf("recovery after superseded checkpoint: %v", err)
			}
			defer r.Close()
			if !r.State().Equal(live) {
				t.Fatalf("recovered state diverged after superseded checkpoint")
			}
		})
	}
}

// TestCheckpointPublishExcludesReset is the deterministic regression test
// for TestCheckpointResetRace's rare poisoning. Reset sweeps the directory
// under mu: it lists every file, then unlinks each one, and a failed unlink
// poisons the store. A checkpoint that renamed its tmp file off-mutex could
// land that rename between Reset's listing and its unlink of the tmp, and
// the unlink failed with "no such file". The publishing rename therefore
// runs with mu held, and this test checks exactly that at the moment of the
// rename.
func TestCheckpointPublishExcludesReset(t *testing.T) {
	hfs := &ckptHookFS{FS: OSFS{}}
	d, err := NewDisk(Config{Dir: t.TempDir(), FS: hfs, Fsync: FsyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Reset(tortureInit)
	fillDisk(t, d, 0, 1024)
	renamed := false
	hfs.onRename = func() {
		renamed = true
		if d.mu.TryLock() {
			d.mu.Unlock()
			t.Error("checkpoint renamed its file without holding the mutex Reset sweeps under")
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !renamed {
		t.Fatal("checkpoint published without a rename")
	}
}

// TestCheckpointResetRace hammers Reset against in-flight checkpoints. The
// regression surface: retirement unlinking the fresh incarnation's opening
// segment when a Reset lands between the marker and the unlinks — which
// silently destroys the new log while the store keeps appending to an
// unlinked inode. Whatever the interleaving, the surviving incarnation's
// seg-00000001.wal must stay on disk, the store must stay healthy, and
// recovery must be exact. (A checkpoint racing a Reset may legitimately
// fail transiently — its tmp file can vanish under it — but must never
// poison the store or touch the new log.)
func TestCheckpointResetRace(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		d.Reset(tortureInit)
		if err := d.Err(); err != nil {
			t.Fatalf("round %d: reset: %v", round, err)
		}
		fillDisk(t, d, 0, 2048) // a handful of sealed segments to retire
		done := make(chan error, 1)
		go func() { done <- d.Checkpoint() }()
		d.Reset(tortureInit) // races the checkpoint's marker/retire steps
		<-done
		if err := d.Err(); err != nil {
			t.Fatalf("round %d: race poisoned the store: %v", round, err)
		}
		found := false
		for _, s := range listSegments(t, dir) {
			if filepath.Base(s) == segName(1) {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: fresh incarnation's %s was unlinked by a dead checkpoint", round, segName(1))
		}
	}
	fillDisk(t, d, 0, 512)
	live := d.State()
	d.Close()
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.State().Equal(live) {
		t.Fatalf("recovered state diverged after reset/checkpoint races")
	}
}

// TestCheckpointerRespawnsAfterDegraded: after persistent failures park the
// background loop, a Reset must not merely clear the CheckpointerOff flag —
// it must bring back a live checkpointer, or the store reports healthy
// while its log grows without bound.
func TestCheckpointerRespawnsAfterDegraded(t *testing.T) {
	cfs := &ckptFailFS{FS: OSFS{}, remaining: -1}
	d, err := NewDisk(Config{Dir: t.TempDir(), FS: cfs, Fsync: FsyncAlways, SegmentBytes: 1024, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Reset(tortureInit)
	fillDisk(t, d, 0, 8*1024)
	waitStats(t, d, "the checkpointer to disable itself", func(ds DurabilityStats) bool {
		return ds.CheckpointerOff
	})
	// The fault condition resolves (the disk stops being full); a Reset
	// restarts the world — and must restart the checkpointer with it.
	cfs.mu.Lock()
	cfs.remaining = 0
	cfs.mu.Unlock()
	d.Reset(tortureInit)
	if ds := d.DurabilityStats(); ds.CheckpointerOff {
		t.Fatalf("CheckpointerOff still set after Reset: %+v", ds)
	}
	fillDisk(t, d, 0, 16*1024)
	waitStats(t, d, "a checkpoint from the respawned loop", func(ds DurabilityStats) bool {
		return ds.Checkpoints >= 1 && ds.SegmentsRetired >= 1
	})
	if err := d.Err(); err != nil {
		t.Fatalf("respawned checkpointer broke the store: %v", err)
	}
}

// TestCheckpointConcurrentCommits runs the background checkpointer against
// concurrent committers (disjoint keys) — the
// race-detector workout for the capture/retire locking. The final state
// must be exact after recovery and at least one checkpoint must land.
func TestCheckpointConcurrentCommits(t *testing.T) {
	const workers, iters = 4, 300
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncGroup, SegmentBytes: 2048, CheckpointBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	init := core.DB{}
	for w := 0; w < workers; w++ {
		init[core.Var(fmt.Sprintf("w%d", w))] = 0
	}
	d.Reset(init)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := core.Var(fmt.Sprintf("w%d", w))
			for i := 1; i <= iters; i++ {
				tx := w*1_000_000 + i
				val := core.Value(i)
				if err := d.ApplyStep(tx, core.Step{Var: v, Kind: core.Write, Fn: func([]core.Value) core.Value { return val }}); err != nil {
					t.Error(err)
					return
				}
				d.Commit(tx)
				if i%8 == 0 {
					if err := d.GroupSync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitStats(t, d, "a checkpoint under concurrency", func(ds DurabilityStats) bool {
		return ds.Checkpoints >= 1
	})
	live := d.State()
	d.Close()
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered := r.State()
	if !recovered.Equal(live) {
		t.Fatalf("recovered != live\n  live      %v\n  recovered %v", live, recovered)
	}
	for w := 0; w < workers; w++ {
		if got := recovered[core.Var(fmt.Sprintf("w%d", w))]; got != iters {
			t.Fatalf("w%d = %d after recovery, want %d", w, got, iters)
		}
	}
}

// ckptBenchDB is a 4096-variable initial database for the capture tests.
func ckptBenchDB() core.DB {
	db := make(core.DB, 4096)
	for i := 0; i < 4096; i++ {
		db[core.Var(fmt.Sprintf("v%04d", i))] = core.Value(i)
	}
	return db
}

// TestCheckpointCaptureAllocs: after the first capture has sized the reused
// table copy and the checkpoint encoder, a capture — flush, anchor, table
// copy under the log mutex — and the snapshot record encoded from it
// allocate nothing.
func TestCheckpointCaptureAllocs(t *testing.T) {
	d, err := NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Reset(ckptBenchDB())
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	capture := func() {
		if _, err := d.capture(); err != nil {
			t.Fatal(err)
		}
		d.ckptEnc.encodeSnapshot(d.ckptCells)
	}
	capture()
	if got := testing.AllocsPerRun(20, capture); got != 0 {
		t.Fatalf("a warm checkpoint capture allocates %.1f times, want 0", got)
	}
	if len(d.ckptCells) != 4096 {
		t.Fatalf("capture copied %d cells, want 4096", len(d.ckptCells))
	}
}

// BenchmarkDiskCheckpoint is the checkpointer's per-layer number: one whole
// checkpoint (capture, checkpoint file, marker, retirement) of a
// 4096-variable store after a few commits.
func BenchmarkDiskCheckpoint(b *testing.B) {
	d, err := NewDisk(Config{Dir: b.TempDir(), Fsync: FsyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	db := ckptBenchDB()
	vars := slices.Collect(maps.Keys(db))
	d.Reset(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tx := 0; tx < 4; tx++ {
			d.Put(tx, vars[(i*4+tx)%len(vars)], core.Value(i))
			d.Commit(tx)
		}
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
