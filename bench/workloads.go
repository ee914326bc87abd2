package main

import (
	"fmt"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// oracle names the correctness check a workload's verification round runs.
type oracle int

const (
	// oracleCSR: the committed schedule must be conflict-serializable.
	oracleCSR oracle = iota
	// oracleReplay: the backend state must equal core.Exec of the
	// committed schedule (strict schedulers, or increment-only writers).
	oracleReplay
	// oracleCSRKnownBug: conflict-serializability is checked on
	// knownBugRounds verification rounds and the run fails when more than
	// knownBugBudget of them violate it. Only for ConcurrentOCC, whose
	// concurrent validation commits a two-transaction cycle in about 1 of
	// 18 verification rounds at the parent commit (README, Findings): a
	// gate that fails at random would fail innocent later changes, and one
	// that never fails would pass a change that breaks validation. Every
	// violation prints a FINDING line and counts in verify.non_csr_rounds.
	// Make it oracleCSR again in the change that fixes the scheduler.
	oracleCSRKnownBug
)

func (o oracle) String() string {
	switch o {
	case oracleCSR:
		return "conflict-serializable"
	case oracleCSRKnownBug:
		return fmt.Sprintf("conflict-serializable (known bug: %d of %d rounds may fail)", knownBugBudget, knownBugRounds)
	}
	return "state==replay"
}

// spec is one benchmark workload: its inputs, the scheduler and backend it
// drives, the fixed round size and the oracle its outputs are checked with.
// The names are final — later issues cite them.
type spec struct {
	name string
	why  string
	// driver marks the workloads BENCHMARK.json lists. The driver's runs of
	// all workloads share an hour, so it gets five, each measured for long
	// enough to be steady; a full run and compare cover all eight.
	driver bool
	// schedName and backendName describe the configuration in the result.
	schedName, backendName string
	// roundJobs is the fixed job count of one round: a constant per
	// workload so counts repeat, sized to ≈0.3 s on the 2-CPU reference box.
	roundJobs int
	// batch is sim.Config.Batch (0 = unbatched).
	batch  int
	oracle oracle
	// gen builds the instance system of `jobs` jobs; the seed reaches
	// nothing but the generators and sim.Config.Seed.
	gen func(seed int64, jobs int) *core.System
	// sched builds the scheduler for a shard count.
	sched func(shards int) online.Scheduler
	// backend builds the storage backend (nil = the run has none); dir is
	// a fresh directory for backends that persist.
	backend func(dir string, shards int) (storage.Backend, error)
}

func disjoint(_ int64, jobs int) *core.System { return workload.Disjoint(jobs, 3) }

// hotspot is the contended mix: random 3-step transactions over 16
// variables with 1/rank skew. Every job is drawn on its own: cycling 256
// templates made the conflicts between neighbouring jobs a sample of 256,
// and throughput moved by a third from seed to seed.
func hotspot(seed int64, jobs int) *core.System {
	return workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 16, Hotspot: 1}, seed)
}

func readMostly(seed int64, jobs int) *core.System {
	return workload.ReadMostly(workload.ReadMostlyConfig{
		Jobs: jobs, Steps: 4, ReadFrac: 0.9, Vars: 16384, HotFrac: 0.5, HotVars: 64}, seed)
}

func banking(_ int64, jobs int) *core.System { return sim.Instantiate(workload.Banking(), jobs) }

func woundWait2PL(shards int) online.Scheduler {
	return online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards)
}

func noopBackend(string, int) (storage.Backend, error) { return storage.NewNoop(), nil }

// kv256 is the cache-resident store: 256 B records, recycling on (sound
// under the strict schedulers that use it).
func kv256(_ string, shards int) (storage.Backend, error) {
	return storage.NewKV(storage.Config{Shards: shards, ValueSize: 256, Recycle: true}), nil
}

// kv4k is the larger-than-cache store: 16384 × 4 KiB = 64 MiB. Recycling
// stays off — the multiversion scheduler is not strict.
func kv4k(_ string, shards int) (storage.Backend, error) {
	return storage.NewKV(storage.Config{Shards: shards, ValueSize: 4096}), nil
}

// modelDevice is the filesystem the durable workload writes through: real
// files in the checkout, real write(2) calls, but a flush that completes at
// once, as on a device with a power-loss-protected write cache. The guest's
// virtual disk is shared with its neighbours: over ten runs on the sandbox's
// real fsync the workload's p99 moved between 2.7 and 11.9 ms (quartile
// spread 52 %, twice the largest bound BENCHMARK.json may fix), and the
// guest cannot sleep a constant 200 µs either, so a real or a modelled
// flush latency would measure the sandbox, not the engine. What remains is
// the engine's own durable path: WAL encode and append, commit records,
// group commit, segment rolls, the checkpointer and retirement, recovery.
// The flush count stays exact, and compare bounds fsyncs_per_commit, so a
// change to flush coalescing shows as a count, not as a time.
type modelDevice struct{ storage.OSFS }

type modelFile struct{ storage.File }

func (modelFile) Sync() error { return nil }

func (d modelDevice) Create(name string) (storage.File, error) {
	f, err := d.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return modelFile{f}, nil
}

func (d modelDevice) Append(name string) (storage.File, error) {
	f, err := d.OSFS.Append(name)
	if err != nil {
		return nil, err
	}
	return modelFile{f}, nil
}

// durableDisk is the eager-mode WAL store with the stated flush policy:
// one flush per drained commit group, small segments and a small checkpoint
// interval so several checkpoint/retirement cycles complete per round.
func durableDisk(dir string, _ int) (storage.Backend, error) {
	return storage.NewDisk(storage.Config{
		Dir: dir, FS: modelDevice{}, Fsync: storage.FsyncGroup,
		SegmentBytes: 64 << 10, CheckpointBytes: 256 << 10,
	})
}

// specs lists the eight workloads in their fixed order.
var specs = []spec{
	{
		name:      "disjoint-cto-noop",
		driver:    true,
		why:       "no conflicts and no storage work: the dispatch hop and tstable are the whole cost",
		schedName: "ConcurrentTO", backendName: "noop",
		roundJobs: 36000, oracle: oracleCSR,
		gen: disjoint, sched: func(n int) online.Scheduler { return online.NewConcurrentTO(n) },
		backend: noopBackend,
	},
	{
		name:      "disjoint-2pl-kv",
		why:       "lockmgr lock-free fast path plus KV apply/commit on cache-resident 256 B records, zero aborts",
		schedName: "ConcurrentStrict2PL(wound-wait)", backendName: "kv 256B recycle",
		roundJobs: 24000, oracle: oracleReplay,
		gen: disjoint, sched: woundWait2PL, backend: kv256,
	},
	{
		name:      "hotspot-2pl-kv",
		why:       "same lockmgr and KV under skewed conflicts: slow-path queues, parked waits, wounds, rollback",
		schedName: "ConcurrentStrict2PL(wound-wait)", backendName: "kv 256B recycle",
		roundJobs: 14000, oracle: oracleReplay,
		gen: hotspot, sched: woundWait2PL, backend: kv256,
	},
	{
		name:      "hotspot-csgt-noop",
		driver:    true,
		why:       "sgtgraph insert, cycle search and prune do most of the work on the contended mix",
		schedName: "ConcurrentSGTAborting", backendName: "noop",
		roundJobs: 18000, oracle: oracleCSR,
		gen: hotspot, sched: func(n int) online.Scheduler { return online.NewConcurrentSGTAborting(n) },
		backend: noopBackend,
	},
	{
		name:      "hotspot-cocc-noop",
		why:       "marks, epoch validation and restart storms of optimistic control on the contended mix",
		schedName: "ConcurrentOCC", backendName: "noop",
		roundJobs: 26000, oracle: oracleCSRKnownBug,
		gen: hotspot, sched: func(n int) online.Scheduler { return online.NewConcurrentOCC(n) },
		backend: noopBackend,
	},
	{
		name:      "readmostly-mv-kv",
		driver:    true,
		why:       "snapshot reads beside first-writer-wins writers and version GC on 64 MiB of 4 KiB records",
		schedName: "ConcurrentMV", backendName: "kv 4KiB",
		roundJobs: 40000, oracle: oracleReplay,
		gen: readMostly, sched: func(n int) online.Scheduler { return online.NewConcurrentMV(n) },
		backend: kv4k,
	},
	{
		name:      "durable-2pl-disk",
		driver:    true,
		why:       "WAL encode and append, group commit, checkpoint and retirement do the work; the flush itself is modelled as free",
		schedName: "ConcurrentStrict2PL(wound-wait)", backendName: "disk eager fsync=group (flush modelled as free) seg=64KiB ckpt=256KiB",
		roundJobs: 18000, batch: 8, oracle: oracleReplay,
		gen: disjoint, sched: woundWait2PL, backend: durableDisk,
	},
	{
		name:      "central-sgt-banking",
		driver:    true,
		why:       "the paper's Section 6 central scheduler goroutine: sequential SGT, no backend",
		schedName: "SGTAborting (central)", backendName: "none",
		roundJobs: 28000, oracle: oracleCSR,
		gen: banking, sched: func(int) online.Scheduler { return online.NewSGTAborting() },
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
