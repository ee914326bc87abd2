// Command ccsim runs the goroutine-per-user concurrency-control simulator
// (the Section 6 environment) for one workload × scheduler configuration
// and prints the latency decomposition and throughput.
//
// Usage:
//
//	ccsim -workload banking -sched 2pl-woundwait -jobs 64 -users 8
//	ccsim -workload tree -sched treelock -jobs 32 -users 8 -exec 200us
//	ccsim -workload random -sched 2pl-woundwait -shards 16 -users 16
//	ccsim -workload banking -sched 2pl-woundwait -backend kv -valuesize 4096
//	ccsim -workload hotshard -sched 2pl-woundwait -shards 4 -backend kv
//	ccsim -workload disjoint -sched cto -shards 4 -users 16
//	ccsim -workload crosspairs -sched csgt -shards 4 -users 16
//	ccsim -workload readmostly -readfrac 0.9 -sched cocc -shards 4 -users 16
//	ccsim -workload crosspairs -sched to -shards 1
//	ccsim -workload readmostly -readfrac 0.95 -sched mv -shards 4 -backend kv
//	ccsim -workload disjoint -sched 2pl-woundwait -shards 4 -backend disk -fsync group
//	ccsim -workload banking -sched 2pl-woundwait -backend disk -dir /tmp/ccwal -fsync always
//	ccsim -workload disjoint -sched 2pl-woundwait -shards 4 -backend disk -checkpoint 262144
//
// -shards 0 (default) runs the classic centralized scheduler goroutine;
// -shards N >= 1 runs the concurrent engine: users decide their own steps
// under per-shard decision latches over hash-partitioned scheduler state
// (run-to-completion dispatch; no scheduler goroutine). -sched cto / cto-thomas select the
// natively concurrent timestamp-ordering scheduler (lock-free sharded
// atomic timestamp table, no shard mutexes); it always
// runs on the concurrent engine. -sched mv selects the multiversion/optimistic
// scheduler (write claims with first-writer-wins over the same timestamp
// table); with the kv backend's version chains, read-only transactions are
// served from pinned lock-free storage snapshots and never enter the grant
// machinery at all. -sched csgt / csgt-delay select the natively concurrent
// serialization-graph scheduler (the sequential SGT's graph behind one
// mutex, lock-free zero-conflict grants; abort-on-cycle and delay-on-cycle)
// and -sched cocc the natively concurrent optimistic scheduler (epoch-based
// backward validation, no global critical section); like cto they always
// run on the concurrent engine. The single-threaded schedulers with no
// 2PL policy (serial, 2pl-conservative, treelock, sgt, to, to-thomas, occ)
// run on the concurrent engine under online.Mutexed — one shard, one latch,
// whatever N is; the printed scheduler= name says so.
//
// -workload readmostly generates the read-fraction workload: -readfrac of
// the jobs are read-only (all-Read), the rest increment writers, all
// skewed onto a small hot set.
//
// Both engines offer every step request to the scheduler on its own. On
// the concurrent engine a transaction commits inline on its user
// goroutine, unless the backend syncs (-backend disk): then commits flow
// through the storage group-commit pipeline (one fsync and one lock
// release per group, asynchronously to the committing users).
//
// Every run ends with the history oracle (internal/check): a "schedule
// CSR" line, with the cycle and its conflicting steps on a violation, and
// with a backend a "state==replay" line naming the first variable that
// differs. Neither changes the exit status.
//
// -backend kv executes every granted step against the sharded in-memory
// storage backend (payload size -valuesize) instead of only sleeping -exec:
// execution time becomes real work, aborts roll the store back, and the
// final state is checked against the serial replay of the committed
// schedule (the check is guaranteed to pass for serial and the strict-2PL
// family; non-strict schedulers may legitimately diverge — see
// internal/storage).
//
// -backend disk executes against the durable WAL backend (append-only
// checksummed segments in -dir, a fresh temporary directory by default,
// removed after the run; a named -dir persists and is reported). -fsync
// picks the durability policy: always (one fsync per commit), group (one
// per drained commit group — pair with -shards and -users to grow the
// groups), never (leave flushing to the OS). Every scheduler runs
// write-buffered: a transaction's writes reach the log only inside its
// commit record, so an uncommitted write never does — that is what makes
// non-strict schedulers recoverable too (see internal/storage).
//
// -checkpoint N arms the disk backend's background fuzzy checkpointer:
// every N bytes of WAL growth it snapshots the store to a checkpoint file
// (tmp → sync → rename), records a durable marker in the log, and retires
// the sealed segments wholly behind the snapshot — bounding the on-disk
// footprint and recovery time of a long run. Commits proceed during the
// checkpoint; checkpoint failures retry with backoff and, if persistent,
// disable checkpointing (reported as degraded) without ever touching the
// commit path. 0 (default) disables it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// sequentialScheduler builds the named single-threaded scheduler and
// reports, for the 2PL family, the lock policy (so -shards can pick the
// natively sharded implementation instead).
func sequentialScheduler(name string) (s online.Scheduler, policy lockmgr.Policy, is2PL, ok bool) {
	switch name {
	case "serial":
		return online.NewSerial(), 0, false, true
	case "2pl", "2pl-detect":
		return online.NewStrict2PL(lockmgr.Detect), lockmgr.Detect, true, true
	case "2pl-nowait":
		return online.NewStrict2PL(lockmgr.NoWait), lockmgr.NoWait, true, true
	case "2pl-waitdie":
		return online.NewStrict2PL(lockmgr.WaitDie), lockmgr.WaitDie, true, true
	case "2pl-woundwait":
		return online.NewStrict2PL(lockmgr.WoundWait), lockmgr.WoundWait, true, true
	case "2pl-conservative":
		return online.NewConservative2PL(), 0, false, true
	case "sgt":
		return online.NewSGTAborting(), 0, false, true
	case "to":
		return online.NewTO(), 0, false, true
	case "to-thomas":
		return online.NewTOThomas(), 0, false, true
	case "occ":
		return online.NewOCC(), 0, false, true
	case "treelock":
		return online.NewTreeLock(), 0, false, true
	default:
		return nil, 0, false, false
	}
}

// schedulerByName builds the scheduler. shards == 0 keeps the classic
// single-threaded scheduler behind the centralized scheduler goroutine;
// shards >= 1 selects the concurrent engine with per-shard decision latches —
// natively sharded strict 2PL for the 2PL family, and the single-threaded
// scheduler under online.Mutexed (one shard, one latch, exactly its
// fixpoint set) for everything else: a family's multi-shard form is its
// native scheduler (cto, mv, csgt, cocc), selected by name. Those always
// run on the concurrent engine, so -shards 0 behaves as one shard.
func schedulerByName(name string, shards int) (online.Scheduler, bool) {
	switch name {
	case "cto":
		return online.NewConcurrentTO(max(shards, 1)), true
	case "cto-thomas":
		return online.NewConcurrentTOThomas(max(shards, 1)), true
	case "mv":
		return online.NewConcurrentMV(max(shards, 1)), true
	case "csgt":
		return online.NewConcurrentSGTAborting(max(shards, 1)), true
	case "csgt-delay":
		return online.NewConcurrentSGT(max(shards, 1)), true
	case "cocc":
		return online.NewConcurrentOCC(max(shards, 1)), true
	}
	seq, policy, is2PL, ok := sequentialScheduler(name)
	if !ok {
		return nil, false
	}
	if shards <= 0 {
		return seq, true
	}
	if is2PL {
		return online.NewConcurrentStrict2PL(policy, shards), true
	}
	return online.NewMutexed(seq), true
}

func workloadByName(name string, seed int64, jobs int, readFrac float64) (*core.System, bool) {
	switch name {
	case "banking":
		return workload.Banking(), true
	case "figure1":
		return workload.Figure1(), true
	case "cross":
		return workload.Cross(), true
	case "chain":
		return workload.Chain(), true
	case "lostupdate":
		return workload.LostUpdate(), true
	case "hotshard":
		return workload.HotShard(), true
	case "disjoint":
		// Sized to the job count: instantiating more jobs than template
		// transactions would cycle and alias variables, silently breaking
		// the workload's defining conflict-freeness.
		return workload.Disjoint(max(jobs, 1), 3), true
	case "crosspairs":
		// Sized to the job count (two transactions per pair) for the same
		// reason as disjoint: cycling the template would alias pair
		// variables and break the pairwise-only-conflict shape.
		return workload.CrossPairs(max(jobs, 2) / 2), true
	case "readmostly":
		// Sized to the job count: the read-only/writer mix is a per-
		// transaction property, so cycling a smaller template would skew
		// the requested -readfrac.
		return workload.ReadMostly(workload.ReadMostlyConfig{
			Jobs: max(jobs, 1), Steps: 4, ReadFrac: readFrac}, seed), true
	case "tree":
		return workload.PathWorkload(4, 4, seed), true
	case "random":
		return workload.Random(workload.RandomConfig{NumTxs: 4, MaxSteps: 3, NumVars: 4, Hotspot: 1}, seed), true
	default:
		return nil, false
	}
}

func main() {
	var (
		wl        = flag.String("workload", "banking", "banking|figure1|cross|chain|lostupdate|hotshard|disjoint|crosspairs|readmostly|tree|random")
		sc        = flag.String("sched", "2pl-woundwait", "serial|2pl|2pl-nowait|2pl-waitdie|2pl-woundwait|2pl-conservative|sgt|to|to-thomas|cto|cto-thomas|csgt|csgt-delay|cocc|mv|occ|treelock")
		jobs      = flag.Int("jobs", 32, "transaction instances to run")
		users     = flag.Int("users", 8, "concurrent user goroutines")
		shards    = flag.Int("shards", 0, "shard count for the concurrent engine (0 = centralized scheduler goroutine)")
		backend   = flag.String("backend", "none", "storage backend executing granted steps (none|kv|noop|disk)")
		valueSize = flag.Int("valuesize", 256, "payload bytes per stored record (kv backend)")
		dir       = flag.String("dir", "", "WAL directory for the disk backend (empty = fresh temp dir, removed after the run)")
		fsync     = flag.String("fsync", "group", "fsync policy for the disk backend (always|group|never)")
		ckpt      = flag.Int("checkpoint", 0, "WAL bytes between background fuzzy checkpoints of the disk backend (0 = off)")
		exec      = flag.Duration("exec", 100*time.Microsecond, "extra simulated per-step execution time")
		think     = flag.Duration("think", 0, "max per-step user think time")
		seed      = flag.Int64("seed", 1979, "random seed")
		readFrac  = flag.Float64("readfrac", 0.9, "fraction of read-only transactions in the readmostly workload")
	)
	flag.Parse()

	if *readFrac < 0 || *readFrac > 1 {
		fmt.Fprintf(os.Stderr, "ccsim: -readfrac %v out of [0,1]\n", *readFrac)
		os.Exit(2)
	}
	template, ok := workloadByName(*wl, *seed, *jobs, *readFrac)
	if !ok {
		fmt.Fprintf(os.Stderr, "ccsim: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	sched, ok := schedulerByName(*sc, *shards)
	if !ok {
		fmt.Fprintf(os.Stderr, "ccsim: unknown scheduler %q\n", *sc)
		os.Exit(2)
	}
	var kv *storage.KV
	var be storage.Backend
	if *backend != "none" {
		s := *shards
		if s < 1 {
			s = 1
		}
		// Payload-buffer recycling is only sound under strict execution
		// (storage.Config.Recycle), so enable it exactly for the strict
		// scheduler family — mv's read-write transactions use unpinned
		// chain reads, so it stays off there too.
		strict := *sc == "serial" || strings.HasPrefix(*sc, "2pl")
		policy, err := storage.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsim: %v\n", err)
			os.Exit(2)
		}
		be, err = storage.New(*backend, storage.Config{
			Shards: s, ValueSize: *valueSize, Recycle: strict,
			Dir: *dir, Fsync: policy, CheckpointBytes: *ckpt,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsim: %v\n", err)
			os.Exit(2)
		}
		kv, _ = be.(*storage.KV)
		if d, ok := be.(*storage.Disk); ok {
			if *dir == "" {
				defer d.Destroy()
			} else {
				defer d.Close()
			}
		}
	}
	inst := sim.Instantiate(template, *jobs)
	m, err := sim.Run(sim.Config{
		System:    inst,
		Sched:     sched,
		Backend:   be,
		Users:     *users,
		ExecTime:  *exec,
		ThinkTime: *think,
		Seed:      *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s scheduler=%s jobs=%d users=%d backend=%s exec=%v\n", *wl, sched.Name(), *jobs, *users, *backend, *exec)
	fmt.Printf("committed      %d\n", m.Committed)
	fmt.Printf("aborts         %d\n", m.Aborts)
	fmt.Printf("deadlockBreaks %d\n", m.DeadlockBreaks)
	fmt.Printf("yields         %d\n", m.Yields)
	if m.CommitGroups > 0 {
		fmt.Printf("groupCommit    %d groups, mean size %.2f\n", m.CommitGroups, m.GroupSize())
	}
	fmt.Printf("elapsed        %v\n", m.Elapsed)
	fmt.Printf("throughput     %.0f tx/s\n", m.Throughput)
	fmt.Printf("scheduling     %s\n", nsSummary(m.SchedNs.Summary()))
	fmt.Printf("waiting        %s\n", nsSummary(m.WaitNs.Summary()))
	fmt.Printf("tx latency     %s\n", nsSummary(m.TxLatencyNs.Summary()))
	if be != nil {
		fmt.Printf("execution      %s\n", nsSummary(m.ExecNs.Summary()))
		if kv != nil {
			st := kv.Stats()
			fmt.Printf("backend        %s reads=%d writes=%d rollbacks=%d bytesRead=%d bytesWritten=%d\n",
				kv.Name(), st.Reads, st.Writes, st.Rollbacks, st.BytesRead, st.BytesWritten)
			if st.SnapshotReads > 0 || st.VersionsGCed > 0 {
				fmt.Printf("multiversion   snapshotReads=%d versionsGCed=%d\n", st.SnapshotReads, st.VersionsGCed)
			}
		}
		if d, ok := be.(storage.DurableBackend); ok {
			fmt.Printf("durability     %s fsync=%s fsyncs=%d walKB=%.1f walTruncated=%d recovery=%v\n",
				d.Name(), *fsync, m.Fsyncs, float64(m.WALBytes)/1024, m.WALTruncated, time.Duration(m.RecoveryNs))
			if *ckpt > 0 {
				health := "on"
				if m.CheckpointerOff {
					health = "OFF (degraded: persistent checkpoint failures)"
				}
				fmt.Printf("checkpointing  every %dB: checkpoints=%d failures=%d segmentsRetired=%d checkpointer=%s\n",
					*ckpt, m.Checkpoints, m.CheckpointFailures, m.SegmentsRetired, health)
			}
			if *dir != "" {
				fmt.Printf("waldir         %s (log persisted after clean close)\n", *dir)
			}
		}
	}
	fmt.Printf("schedule CSR   %s (guaranteed except under the Thomas write rule)\n", verdict(check.CSR(inst, m.Output)))
	if be != nil {
		fmt.Printf("state==replay  %s (guaranteed for serial, the strict-2PL family and mv write sets)\n",
			verdict(check.Replay(inst, m.Output, be.State())))
	}
}

// verdict renders a history-oracle result: true, false with the witness,
// or unknown when the check itself could not run.
func verdict(err error) string {
	if err == nil {
		return "true"
	}
	if _, ok := err.(*check.Violation); ok {
		return "false: " + err.Error()
	}
	return "unknown (" + err.Error() + ")"
}

// nsSummary keeps the histogram summary but notes the unit.
func nsSummary(s string) string { return strings.TrimSpace(s) + " (ns)" }
