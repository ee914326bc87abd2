package storage

// Coverage for the disk backend's lock-free step path: steps, commits and
// rollbacks race the background checkpointer and State() readers, and the
// log, the live table and the recovered table must still agree; a poisoned
// store refuses steps without the log mutex; a variable first written by a
// commit lives outside the Reset-built table and must survive checkpoint
// and recovery all the same. CI runs these under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
)

// teeFS records every byte written to a log segment, in write order. The
// store writes segments only under its log mutex, so the recording is the
// whole log in log order, including segments the checkpointer has since
// retired.
type teeFS struct {
	FS
	mu  sync.Mutex
	log bytes.Buffer
}

func (t *teeFS) Create(name string) (File, error) {
	f, err := t.FS.Create(name)
	base := filepath.Base(name)
	if err != nil || !strings.HasPrefix(base, "seg-") || !strings.HasSuffix(base, ".wal") {
		return f, err
	}
	return &teeFile{File: f, fs: t}, nil
}

type teeFile struct {
	File
	fs *teeFS
}

func (f *teeFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.log.Write(p[:n])
	f.fs.mu.Unlock()
	return n, err
}

// replayLog applies a recorded log in order: snapshots reset the state,
// commit records apply their write sets, markers carry nothing.
func replayLog(t *testing.T, log []byte) core.DB {
	t.Helper()
	db := core.DB{}
	valid, clean := walScan(log, func(r walRec) {
		switch r.kind {
		case walSnapshot:
			db = core.DB{}
			for _, w := range r.writes {
				db[w.v] = w.val
			}
		case walCommit:
			for _, w := range r.writes {
				db[w.v] = w.val
			}
		}
	})
	if !clean || valid != len(log) {
		t.Fatalf("recorded log scans %d of %d bytes (clean %v)", valid, len(log), clean)
	}
	return db
}

// TestDiskConcurrentStepsCheckpointRecovery: workers run strict-2PL
// transfers (take both variables' locks in order, move one unit, commit or
// roll back, release) while the background checkpointer captures and
// retires, and a sampler reads State(). Every sample must conserve the
// total — a state read under the log mutex is an exact cut, never half a
// commit. At the end the live state equals the replay of the whole log in
// log order and the state OpenDisk recovers, and every variable holds its
// initial value plus the committed transfers' net delta.
func TestDiskConcurrentStepsCheckpointRecovery(t *testing.T) {
	const workers, iters, nvars, initVal = 4, 400, 8, 1000
	dir := t.TempDir()
	tee := &teeFS{FS: OSFS{}}
	d, err := NewDisk(Config{Dir: dir, FS: tee, Fsync: FsyncGroup, SegmentBytes: 1024, CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]core.Var, nvars)
	init := core.DB{}
	for i := range vars {
		vars[i] = core.Var(fmt.Sprintf("acct%d", i))
		init[vars[i]] = initVal
	}
	d.Reset(init)
	total := core.Value(nvars * initVal)
	sum := func(db core.DB) core.Value {
		s := core.Value(0)
		for _, val := range db {
			s += val
		}
		return s
	}

	locks := make([]sync.Mutex, nvars)
	var delta [nvars]atomic.Int64
	dec := func(l []core.Value) core.Value { return l[len(l)-1] - 1 }
	incr := func(l []core.Value) core.Value { return l[len(l)-1] + 1 }

	stop := make(chan struct{})
	var samples atomic.Int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := sum(d.State()); s != total {
				t.Errorf("State() sample sums to %d, want %d: not a cut", s, total)
				return
			}
			samples.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				tx := w*1_000_000 + i
				from, to := rng.Intn(nvars), rng.Intn(nvars-1)
				if to >= from {
					to++
				}
				lo, hi := min(from, to), max(from, to)
				locks[lo].Lock()
				locks[hi].Lock()
				err := d.ApplyStep(tx, core.Step{Var: vars[from], Kind: core.Write, Fn: dec})
				if err == nil {
					err = d.ApplyStep(tx, core.Step{Var: vars[to], Kind: core.Write, Fn: incr})
				}
				switch {
				case err != nil:
					t.Error(err)
				case rng.Intn(4) == 0:
					d.Rollback(tx)
				default:
					d.Commit(tx)
					delta[from].Add(-1)
					delta[to].Add(1)
				}
				locks[hi].Unlock()
				locks[lo].Unlock()
				if err != nil {
					return
				}
				if i%16 == 0 {
					if err := d.GroupSync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	if t.Failed() {
		return
	}
	ds := waitStats(t, d, "a checkpoint that retired segments", func(ds DurabilityStats) bool {
		return ds.Checkpoints >= 1 && ds.SegmentsRetired >= 1
	})
	if samples.Load() == 0 {
		t.Fatal("the sampler never read State()")
	}

	live := d.State()
	want := core.DB{}
	for i, v := range vars {
		want[v] = initVal + core.Value(delta[i].Load())
	}
	if !live.Equal(want) {
		t.Fatalf("live state != init + committed transfers\n  live %v\n  want %v", live, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	tee.mu.Lock()
	replayed := replayLog(t, tee.log.Bytes())
	tee.mu.Unlock()
	if !replayed.Equal(live) {
		t.Fatalf("log replay != live\n  live   %v\n  replay %v", live, replayed)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recovered := r.State(); !recovered.Equal(live) {
		t.Fatalf("recovered != live\n  live      %v\n  recovered %v", live, recovered)
	}
	t.Logf("%d checkpoints, %d segments retired, %d State() samples", ds.Checkpoints, ds.SegmentsRetired, samples.Load())
}

// TestDiskPoisonedStepsAndCommit: once an injected fault fails a log
// write, the store is poisoned — a step returns the sticky error without
// touching the log mutex, a later commit of writes buffered before the
// fault stages nothing and changes nothing, and recovery finds the state
// before the failed write. Under FsyncGroup the failed write is the one
// GroupSync makes for the group of commits 1 and 2, so both fail together;
// under FsyncAlways it is commit 1's own record, and a failed commit-record
// write changes nothing in memory.
func TestDiskPoisonedStepsAndCommit(t *testing.T) {
	init := core.DB{"x": 1, "y": 2}
	for _, policy := range []FsyncPolicy{FsyncGroup, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			efs := NewErrFS(OSFS{})
			d, err := NewDisk(Config{Dir: dir, FS: efs, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.Reset(init)
			applyTx(t, d, 1, []walWrite{{v: "x", val: 10}})
			applyTx(t, d, 2, []walWrite{{v: "y", val: 20}})
			applyTx(t, d, 4, []walWrite{{v: "x", val: 40}})

			var sticky error
			if policy == FsyncGroup {
				d.Commit(1)
				d.Commit(2)
				efs.FailAt(efs.Ops() + 1) // the group's one write
				sticky = d.GroupSync()
			} else {
				efs.FailAt(efs.Ops() + 1) // tx 1's commit-record write
				d.Commit(1)
				sticky = d.Err()
				if got := d.State(); !got.Equal(init) {
					t.Fatalf("state after the failed commit-record write = %v, want %v", got, init)
				}
			}
			if !errors.Is(sticky, ErrInjected) {
				t.Fatalf("failed write reported %v, want ErrInjected", sticky)
			}
			if err := d.Err(); err != sticky {
				t.Fatalf("Err() = %v, want the sticky %v", err, sticky)
			}
			step := core.Step{Var: "x", Kind: core.Write, Fn: func([]core.Value) core.Value { return 99 }}
			if err := d.ApplyStep(3, step); err != sticky {
				t.Fatalf("ApplyStep on a poisoned store = %v, want the sticky %v", err, sticky)
			}
			walBytes, before := d.DurabilityStats().WALBytes, d.State()
			d.Commit(4)
			if got := d.DurabilityStats().WALBytes; got != walBytes {
				t.Fatalf("Commit on a poisoned store staged %d bytes", got-walBytes)
			}
			if got := d.State(); !got.Equal(before) {
				t.Fatalf("Commit on a poisoned store changed state %v to %v", before, got)
			}
			d.Close()
			r, err := OpenDisk(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.State(); !got.Equal(init) {
				t.Fatalf("recovered %v after the failed write, want %v", got, init)
			}
		})
	}
}

// TestDiskCommitCreatesVariable: a variable absent from Reset's init gets
// its cell from the commit that first writes it. Other transactions read
// the committed value, a checkpoint captures it, and recovery restores it
// from that checkpoint after the segment holding the commit is retired.
func TestDiskCommitCreatesVariable(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{"x": 1})
	applyTx(t, d, 1, []walWrite{{v: "fresh", val: 42}})
	if got := d.Get(2, "fresh"); got != 0 {
		t.Fatalf("uncommitted fresh variable visible to another tx: %d", got)
	}
	d.Commit(1)
	if got := d.Get(2, "fresh"); got != 42 {
		t.Fatalf("Get(fresh) after its commit = %d, want 42", got)
	}
	seen := core.Value(-1)
	step := core.Step{Var: "fresh", Kind: core.Write, Fn: func(l []core.Value) core.Value {
		seen = l[len(l)-1]
		return seen
	}}
	if err := d.ApplyStep(3, step); err != nil {
		t.Fatal(err)
	}
	d.Rollback(3)
	if seen != 42 {
		t.Fatalf("ApplyStep read fresh = %d, want 42", seen)
	}
	scanned := core.Value(-1)
	d.Scan(func(v core.Var, val core.Value) bool {
		if v == "fresh" {
			scanned = val
		}
		return true
	})
	if scanned != 42 {
		t.Fatalf("Scan reports fresh = %d, want 42", scanned)
	}
	// One record per segment: the checkpoint anchors past the commit's
	// segment and retires it.
	applyTx(t, d, 4, []walWrite{{v: "x", val: 5}})
	d.Commit(4)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ds := d.DurabilityStats(); ds.SegmentsRetired == 0 {
		t.Fatal("the checkpoint retired no segment; recovery would not depend on it")
	}
	names := ckptFiles(t, dir)
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no checkpoint file")
	}
	img, ok := loadCheckpoint(OSFS{}, dir, names[len(names)-1])
	if !ok || img.table["fresh"] != 42 {
		t.Fatalf("checkpoint %s does not capture fresh = 42 (ok %v, table %v)", names[len(names)-1], ok, img)
	}
	want := d.State()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.State(); !got.Equal(want) || got["fresh"] != 42 {
		t.Fatalf("recovered %v, want %v with fresh = 42", got, want)
	}
}

// BenchmarkDiskApplyStepParallel is the step path's per-layer number: each
// goroutine applies update steps to variables of a Reset-built table, four
// steps per transaction, and rolls the transaction back (which empties
// its context without the log mutex). ns/op is one step. Each goroutine
// cycles through a window of transaction numbers of its own, as the
// engine's users draw distinct numbers from one system, so the table
// stays the size of a run's.
func BenchmarkDiskApplyStepParallel(b *testing.B) {
	const nvars, window = 1024, 1 << 12
	d, err := NewDisk(Config{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	vars := make([]core.Var, nvars)
	init := core.DB{}
	for i := range vars {
		vars[i] = core.Var(fmt.Sprintf("v%04d", i))
		init[vars[i]] = 0
	}
	d.Reset(init)
	incr := func(l []core.Value) core.Value { return l[len(l)-1] + 1 }
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(workers.Add(1)-1) * window
		tx := base
		for i := 0; pb.Next(); i++ {
			if err := d.ApplyStep(tx, core.Step{Var: vars[(tx*7+i)%nvars], Kind: core.Update, Fn: incr}); err != nil {
				b.Error(err)
				return
			}
			if i%4 == 3 {
				d.Rollback(tx)
				tx = base + (tx-base+1)%window
			}
		}
		d.Rollback(tx)
	})
}
