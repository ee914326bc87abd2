package optcc

// One benchmark per experiment of DESIGN.md's index (theorems T1–T4,
// figures F1–F5, measurements E1–E7), plus per-layer micro-benchmarks.
// End-to-end throughput is bench/'s job, not this file's. Run with:
//
//	go test -run '^$' -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/experiments"
	"optcc/internal/geometry"
	"optcc/internal/herbrand"
	"optcc/internal/locking"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/schedule"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
	"optcc/internal/wsr"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkHerbrandEvalBanking(b *testing.B) {
	sys := workload.Banking()
	h := core.AllSteps(sys.Format())
	u := herbrand.NewUniverse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := herbrand.Eval(u, sys, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHerbrandSerializableCheck(b *testing.B) {
	sys := workload.Banking()
	checker, err := herbrand.NewChecker(sys)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	h := schedule.Random(sys.Format(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.Serializable(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConflictGraphBanking(b *testing.B) {
	sys := workload.Banking()
	rng := rand.New(rand.NewSource(2))
	h := schedule.Random(sys.Format(), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := conflict.Serializable(sys, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWSRCheckFigure1(b *testing.B) {
	sys := workload.Figure1()
	checker, err := wsr.NewChecker(sys, wsr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := core.Schedule{{Tx: 0, Idx: 0}, {Tx: 1, Idx: 0}, {Tx: 0, Idx: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.Weak(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleEnumerationBanking(b *testing.B) {
	format := workload.Banking().Format()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		schedule.Enumerate(format, func(core.Schedule) bool { n++; return true })
		if n != 1260 {
			b.Fatalf("enumerated %d", n)
		}
	}
}

func BenchmarkScheduleRankUnrank(b *testing.B) {
	format := workload.Banking().Format()
	rng := rand.New(rand.NewSource(3))
	h := schedule.Random(format, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := schedule.Rank(format, h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := schedule.Unrank(format, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockTableAcquireRelease(b *testing.B) {
	vars := []core.Var{"a", "b", "c", "d"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := lockmgr.NewTable(lockmgr.Detect)
		for tx := lockmgr.TxID(0); tx < 4; tx++ {
			tab.Register(tx)
			for _, v := range vars {
				tab.Acquire(tx, v, lockmgr.Shared)
			}
		}
		for tx := lockmgr.TxID(0); tx < 4; tx++ {
			tab.ReleaseAll(tx)
		}
	}
}

// BenchmarkShardedTableTx measures strict 2PL's uncontended transaction on
// the concurrent lock table alone: three fast-path exclusive Acquires, then
// ReleaseAll and Forget, on a 4-shard table with declared variables and a
// reserved id. No shard mutex is taken and nothing is allocated.
func BenchmarkShardedTableTx(b *testing.B) {
	vars := []core.Var{"a", "b", "c"}
	tab := lockmgr.NewShardedTable(lockmgr.WoundWait, 4)
	tab.Reserve(1)
	tab.Declare(vars)
	tab.Register(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vars {
			if r := tab.Acquire(0, v, lockmgr.Exclusive); r.Status != lockmgr.Granted {
				b.Fatalf("acquire %s: %v", v, r.Status)
			}
		}
		tab.ReleaseAll(0)
		tab.Forget(0)
	}
}

func BenchmarkLRSOutputsTwoPhase(b *testing.B) {
	sys := workload.Cross()
	ls, err := locking.TwoPhase{}.Transform(sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locking.Outputs(ls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometryDeadlockRegion(b *testing.B) {
	ls, err := locking.TwoPhase{}.Transform(workload.Cross())
	if err != nil {
		b.Fatal(err)
	}
	sp, err := geometry.NewSpace(ls, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.DeadlockRegion()
	}
}

func BenchmarkSGTReplayBanking(b *testing.B) {
	sys := workload.Banking()
	rng := rand.New(rand.NewSource(4))
	h := schedule.Random(sys.Format(), rng)
	sched := online.NewSGT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.Replay(sys, sched, h, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerDecisionLatency(b *testing.B) {
	// Per-request decision cost of each scheduler on a serial stream: the
	// "scheduling time" component of Section 6.
	sys := sim.Instantiate(workload.Banking(), 30)
	h := core.AllSteps(sys.Format())
	for _, sched := range []online.Scheduler{
		online.NewSerial(),
		online.NewStrict2PL(lockmgr.Detect),
		online.NewSGT(),
		online.NewTO(),
		online.NewOCC(),
	} {
		b.Run(sched.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := online.Replay(sys, sched, h, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVBackendApplyStep measures the storage hot path alone: apply an
// update step (checksummed read + copy-on-write write) and commit, per
// payload size.
func BenchmarkKVBackendApplyStep(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			kv := storage.NewKV(storage.Config{Shards: 4, ValueSize: size})
			kv.Reset(core.DB{"x": 0})
			step := core.Step{Var: "x", Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
			b.SetBytes(int64(2 * size)) // one payload read + one payload write
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kv.ApplyStep(0, step); err != nil {
					b.Fatal(err)
				}
				kv.Commit(0)
			}
		})
	}
}

// BenchmarkKVSnapshotRead measures the lock-free snapshot read alone — the
// chain walk plus the full-payload checksum — per record size. bench/'s
// storage.kv.snapshot_read_ns probe reads 256 B records only, so it cannot
// show what record size costs.
func BenchmarkKVSnapshotRead(b *testing.B) {
	for _, size := range []int{256, 4096, 16384} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			kv := storage.NewKV(storage.Config{Shards: 4, ValueSize: size})
			kv.Reset(core.DB{"x": 7})
			snap := kv.SnapshotAcquire(0)
			defer kv.SnapshotRelease(0)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := kv.SnapshotRead(0, "x", snap); got != 7 {
					b.Fatalf("SnapshotRead = %d, want 7", got)
				}
			}
		})
	}
}

// BenchmarkDiskBackendCommit measures the durable commit hot path per
// fsync policy: one single-write transaction per iteration (update record
// + commit record appended to the WAL), with the fsync cost inline for
// always, amortized over groups of 8 for group, and absent for never.
func BenchmarkDiskBackendCommit(b *testing.B) {
	for _, fs := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncGroup, storage.FsyncNever} {
		b.Run(fs.String(), func(b *testing.B) {
			d, err := storage.NewDisk(storage.Config{Fsync: fs})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Destroy()
			d.Reset(core.DB{"x": 0})
			step := core.Step{Var: "x", Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ApplyStep(i, step); err != nil {
					b.Fatal(err)
				}
				d.Commit(i)
				if fs == storage.FsyncGroup && i%8 == 7 {
					if err := d.GroupSync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
