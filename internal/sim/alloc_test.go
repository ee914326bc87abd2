package sim

// The hot-path allocation harness: BenchmarkHotPathAllocs measures heap
// allocations per committed transaction through the full runtime
// (request→grant→execute→commit on live user goroutines), and
// TestHotPathAllocCeilings enforces hard ceilings on the same
// measurements in a normal `go test` run, so an allocation regression
// breaks the build instead of only drifting a benchmark number.
//
// The op is one committed transaction of three steps. The workload cycles
// b.N jobs over a fixed pool of variables, so after the first cycle every
// lock entry, map bucket and scratch buffer is warm and the steady state
// is measured; setup allocations (goroutines, channels, presized
// histograms, per-variable state) amortize to zero as b.N grows.
// Occasional collisions between concurrent users on a shared variable
// exercise the parked path without aborts (Detect policy, single-variable
// transactions cannot deadlock).

import (
	"testing"

	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// hotPathVars is the variable-pool size the jobs cycle over: large enough
// that 4 users rarely collide, small enough that state warms quickly.
const hotPathVars = 256

// hotPathBench returns a benchmark running b.N three-step transactions
// through the given scheduler and backend; allocations are counted from
// after setup (ResetTimer) to completion.
func hotPathBench(mk func() online.Scheduler, mkBackend func() storage.Backend) func(b *testing.B) {
	return poolBench(hotPathVars, mk, mkBackend)
}

// poolBench is hotPathBench over a pool of vars variables; vars 0 gives
// every transaction a variable of its own, so no per-variable state is
// ever warm (bench's durable-2pl-disk shape).
func poolBench(vars int, mk func() online.Scheduler, mkBackend func() storage.Backend) func(b *testing.B) {
	return func(b *testing.B) {
		pool := vars
		if pool == 0 {
			pool = b.N
		}
		template := workload.Disjoint(pool, 3)
		inst := Instantiate(template, b.N)
		var be storage.Backend
		if mkBackend != nil {
			be = mkBackend()
		}
		sched := mk()
		b.ReportAllocs()
		b.ResetTimer()
		m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if m.Committed != b.N {
			b.Fatalf("committed %d of %d", m.Committed, b.N)
		}
	}
}

func noopBackend() storage.Backend { return storage.NewNoop() }

// freeSyncFS writes real files but completes every flush at once, so the
// durable path is measured without the device's fsync latency.
type freeSyncFS struct{ storage.OSFS }

type freeSyncFile struct{ storage.File }

func (freeSyncFile) Sync() error { return nil }

func (fs freeSyncFS) Create(name string) (storage.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return freeSyncFile{f}, nil
}

// diskBench is hotPathBench on the durable backend: a Disk under group
// fsync on freeSyncFS with no background checkpointer, so the transaction
// contexts, the commit-record append and the group-commit pipeline are
// what is counted.
func diskBench(b *testing.B) {
	d, err := storage.NewDisk(storage.Config{Dir: b.TempDir(), FS: freeSyncFS{}, Fsync: storage.FsyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	hotPathBench(func() online.Scheduler {
		return online.NewConcurrentStrict2PL(lockmgr.Detect, 4)
	}, func() storage.Backend { return d })(b)
}

func kvBackend() storage.Backend {
	return storage.NewKV(storage.Config{Shards: 4, ValueSize: 256})
}

// mvWritersBench is hotPathBench's op under mv on a read-mostly mix with
// writers over 4 KiB records (bench's readmostly-mv-kv shape): read-only
// transactions ride pinned snapshots while first-writer-wins writers
// supersede versions that the store reclaims and reuses under them.
func mvWritersBench(b *testing.B) {
	template := workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: hotPathVars, Steps: 3, ReadFrac: 0.9, Vars: hotPathVars, HotFrac: 0.5, HotVars: 16,
	}, 1)
	inst := Instantiate(template, b.N)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 4096})
	sched := online.NewConcurrentMV(4)
	b.ReportAllocs()
	b.ResetTimer()
	m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if m.Committed != b.N {
		b.Fatalf("committed %d of %d", m.Committed, b.N)
	}
	if b.N >= hotPathVars && m.VersionGCed == 0 {
		b.Fatalf("no superseded version was collected in %d transactions", b.N)
	}
}

// snapshotBench measures the read-only snapshot fast path: every
// transaction is all-Read, so the runtime serves each one from a pinned
// multiversion-KV snapshot — no grants, no shard latches — and the
// warmed-up path must not allocate at all.
func snapshotBench(b *testing.B) {
	template := workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: hotPathVars, Steps: 3, ReadFrac: 1, Vars: hotPathVars, HotVars: 1,
	}, 1)
	inst := Instantiate(template, b.N)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 256})
	sched := online.NewConcurrentMV(4)
	b.ReportAllocs()
	b.ResetTimer()
	m, err := Run(Config{System: inst, Sched: sched, Backend: be, Users: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if m.Committed != b.N {
		b.Fatalf("committed %d of %d", m.Committed, b.N)
	}
	if m.SnapshotReads != int64(3*b.N) {
		b.Fatalf("snapshot reads %d, want %d", m.SnapshotReads, 3*b.N)
	}
}

// hotPathCases are the measured configurations and their enforced
// ceilings (allocs per committed three-step transaction):
//
//   - mutexed-noop: the acceptance target — the run-to-completion runtime
//     driving Mutexed strict 2PL with the no-op backend performs ZERO
//     heap allocations per transaction in steady state.
//   - cto-noop: the configuration the run-to-completion throughput claim is
//     made on (bench's disjoint-cto-noop) — native timestamp ordering
//     decided on the user goroutine under the shard latch: ZERO.
//   - central-noop: the centralized single-goroutine runtime on plain
//     strict 2PL is equally allocation-free.
//   - sharded-2pl-noop: natively sharded strict 2PL also measures 0 in
//     steady state; the ceiling of 4 leaves headroom for collision-path
//     bookkeeping (wound lists, breaker scans) on slower boxes.
//   - sharded-2pl-fresh-noop: the same scheduler with every transaction on
//     a variable of its own: ZERO — every variable's fast slot is declared
//     at Begin, so a first touch creates nothing.
//   - mutexed-kv, sharded-2pl-kv: real storage under strict 2PL, Mutexed
//     and natively sharded, 256 B records: ZERO — a write takes a
//     version, header and payload, off its shard's freelist, and a
//     commit's reclamation hands the displaced one back.
//   - mv-writers-kv: first-writer-wins writers beside pinned snapshot
//     readers on 4 KiB records: ZERO — superseded and rolled-back
//     versions are reclaimed under the readers' and writers' pins and
//     reused.
//   - mv-snapshot-kv: read-only transactions through the multiversion
//     snapshot path perform ZERO allocations — acquire, chain-walk reads
//     and release touch no lock and build nothing on the heap.
//   - sharded-2pl-disk: sharded strict 2PL on the durable backend, through
//     the group-commit pipeline, measures 0 — every transaction number
//     is fresh, but its context is a slot of a 256-slot txtab chunk whose
//     locals and write set start in inline arrays, the commit record
//     encodes into a reused buffer and the queue is double-buffered. The
//     ceiling of 1 leaves one allocation of collision-path headroom,
//     below the two (locals, write set) a context without inline
//     buffers costs.
//   - csgt-noop: the natively concurrent SGT: ZERO — zero-conflict grants
//     take the lock-free path, marks and source scratch are amortized
//     per-entry slices, and a colliding grant edges on the sequential
//     SGT's dense graph, whose lists recycle through its spare pool
//     (internal/online's TestConcurrentSGTContendedAllocs holds the
//     contended path to 0 on its own).
//   - cocc-noop: the natively concurrent OCC measures 2 — the
//     copy-on-write writer-mark publish (slice + published header) on each
//     transaction's first write of a variable; footprints live in a
//     Begin-time slab. Ceiling 4 leaves restart headroom.
//   - central-sgt-noop, mutexed-sgt-noop: the sequential SGT, the paper's
//     serialization scheduler, on the central goroutine and behind
//     Mutexed: ZERO — steps are filed in per-variable lists, edges in
//     per-transaction lists recycled through a spare pool, scratch sets are
//     stamps on the nodes, and the per-step variable index is one
//     Begin-time slab.
var hotPathCases = []struct {
	name    string
	ceiling int64
	bench   func(b *testing.B)
}{
	{"mutexed-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewMutexed(online.NewStrict2PL(lockmgr.Detect))
	}, noopBackend)},
	{"cto-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentTO(4)
	}, noopBackend)},
	{"central-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewStrict2PL(lockmgr.Detect)
	}, noopBackend)},
	{"sharded-2pl-noop", 4, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentStrict2PL(lockmgr.Detect, 4)
	}, noopBackend)},
	{"sharded-2pl-fresh-noop", 0, poolBench(0, func() online.Scheduler {
		return online.NewConcurrentStrict2PL(lockmgr.Detect, 4)
	}, noopBackend)},
	{"mutexed-kv", 0, hotPathBench(func() online.Scheduler {
		return online.NewMutexed(online.NewStrict2PL(lockmgr.Detect))
	}, kvBackend)},
	{"sharded-2pl-kv", 0, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentStrict2PL(lockmgr.Detect, 4)
	}, kvBackend)},
	{"mv-writers-kv", 0, mvWritersBench},
	{"mv-snapshot-kv", 0, snapshotBench},
	{"sharded-2pl-disk", 1, diskBench},
	{"csgt-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentSGTAborting(4)
	}, noopBackend)},
	{"cocc-noop", 4, hotPathBench(func() online.Scheduler {
		return online.NewConcurrentOCC(4)
	}, noopBackend)},
	{"central-sgt-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewSGTAborting()
	}, noopBackend)},
	{"mutexed-sgt-noop", 0, hotPathBench(func() online.Scheduler {
		return online.NewMutexed(online.NewSGTAborting())
	}, noopBackend)},
}

// BenchmarkHotPathAllocs reports ns/op and allocs/op for every hot-path
// configuration; run with -benchmem to see the allocation columns.
func BenchmarkHotPathAllocs(b *testing.B) {
	for _, c := range hotPathCases {
		b.Run(c.name, c.bench)
	}
}

// TestHotPathAllocCeilings is the allocation regression gate: it runs each
// hot-path benchmark through testing.Benchmark and fails when
// AllocsPerOp exceeds the configuration's ceiling. It runs in every plain
// `go test` (CI has a dedicated no-race step); under the race detector the
// instrumentation itself allocates, so the ceilings are skipped there.
func TestHotPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; ceilings run in the no-race CI step")
	}
	if testing.Short() {
		t.Skip("short mode: skipping benchmark-backed ceilings")
	}
	for _, c := range hotPathCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs per committed tx, ceiling %d (bytes/op %d, N %d)",
					c.name, got, c.ceiling, r.AllocedBytesPerOp(), r.N)
			} else {
				t.Logf("%s: %d allocs/tx (ceiling %d), %d B/tx, N=%d",
					c.name, got, c.ceiling, r.AllocedBytesPerOp(), r.N)
			}
		})
	}
}
