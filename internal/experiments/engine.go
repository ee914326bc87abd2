// Engine cells (E4, E7, E9, E11–E15): each runs the goroutine runtime once
// at a fixed scale and self-checks the committed result — every job
// commits, and state==replay, schedule CSR or recovered==replay holds per
// cell. The tables keep counters, plus E4's and E7's waiting columns
// (Section 6's delay measure); throughput and latency numbers come from
// bench/, not from here.

package experiments

import (
	"fmt"
	"os"
	"time"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/sim"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// maxRestarts bounds per-transaction restarts in the cells whose aborting
// schedulers (cto, csgt, cocc, mv) run on a hotspot.
const maxRestarts = 10000

// E4SimulatedWaiting runs the goroutine simulator: waiting time per
// scheduler as concurrency rises on the banking workload, Section 6's delay
// measure.
func E4SimulatedWaiting() (*Result, error) {
	const jobs = 24
	res := &Result{ID: "E4", Title: "Section 6 — simulated waiting time vs fixpoint richness (goroutine runtime)"}
	template := workload.Banking()
	for _, users := range []int{2, 4, 8} {
		t := report.NewTable(fmt.Sprintf("banking, %d jobs, %d users", jobs, users),
			"scheduler", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "p95-wait-µs", "self-check")
		for _, sched := range []online.Scheduler{
			online.NewSerial(),
			online.NewStrict2PL(lockmgr.WoundWait),
			online.NewSGTAborting(),
			online.NewOCC(),
		} {
			m, err := sim.Run(sim.Config{
				System:   sim.Instantiate(template, jobs),
				Sched:    sched,
				Users:    users,
				ExecTime: 100 * time.Microsecond,
				Seed:     1979,
			})
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("E4: %s committed %d of %d", sched.Name(), m.Committed, jobs)
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, m.DeadlockBreaks,
				m.WaitNs.N(), m.WaitNs.Mean()/1e3, m.WaitNs.Percentile(95)/1e3, "all committed")
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E7DeadlockPolicies is the design-choice ablation: the four deadlock
// handling strategies under a deadlock-prone workload.
func E7DeadlockPolicies() (*Result, error) {
	const jobs = 16
	inst := sim.Instantiate(workload.Cross(), jobs)
	t := report.NewTable(fmt.Sprintf("deadlock handling ablation — cross workload, %d jobs, 8 users", jobs),
		"policy", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "self-check")
	for _, policy := range []lockmgr.Policy{lockmgr.Detect, lockmgr.NoWait, lockmgr.WaitDie, lockmgr.WoundWait} {
		m, err := sim.Run(sim.Config{
			System:   inst,
			Sched:    online.NewStrict2PL(policy),
			Users:    8,
			ExecTime: 50 * time.Microsecond,
			Seed:     2024,
		})
		if err != nil {
			return nil, err
		}
		if m.Committed != jobs {
			return nil, fmt.Errorf("E7: %v committed %d of %d", policy, m.Committed, jobs)
		}
		t.AddRow(policy.String(), m.Committed, m.Aborts, m.DeadlockBreaks, m.WaitNs.N(), m.WaitNs.Mean()/1e3, "all committed")
	}
	return &Result{ID: "E7", Title: "Ablation — deadlock handling under strict 2PL", Tables: []*report.Table{t}}, nil
}

// checkReplay reports whether the committed state equals core.Exec of the
// committed schedule from the system's initial state.
func checkReplay(sys *core.System, output []core.StepID, state core.DB) error {
	replay, err := core.Exec(sys, output, sys.InitialStates()[0])
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !state.Equal(replay) {
		return fmt.Errorf("backend state diverged from committed replay")
	}
	return nil
}

// checkCSR reports whether the committed schedule is conflict-serializable.
func checkCSR(sys *core.System, output []core.StepID) error {
	csr, _, err := conflict.Serializable(sys, output)
	if err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	if !csr {
		return fmt.Errorf("committed a non-conflict-serializable schedule")
	}
	return nil
}

// E9StorageBackend runs schedulers doing real work: every granted step
// reads and writes the KV backend (checksummed payload records,
// copy-on-write, undo-logged aborts) instead of sleeping, across value size
// × contention regime × shard count. Every scheduler in the cell is strict
// 2PL, so payload recycling is sound (storage.Config.Recycle) and the
// committed backend state must equal core.Exec of the committed schedule —
// any divergence is an engine bug.
func E9StorageBackend() (*Result, error) {
	const jobs, users = 24, 8
	res := &Result{
		ID:    "E9",
		Title: "Real storage execution — strict 2PL on the kv backend across value size × skew",
		Text: "Every granted step executes against the storage backend (checksummed reads, " +
			"copy-on-write writes, undo-logged aborts); the committed state is verified against " +
			"the serial replay of the committed schedule.",
	}
	regimes := []struct {
		name     string
		template *core.System
	}{
		{"uniform access", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 4 * jobs}, 1979)},
		{"skewed access (hotspot)", workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 1979)},
	}
	for _, reg := range regimes {
		for _, valueSize := range []int{64, 4096} {
			t := report.NewTable(fmt.Sprintf("%s, %dB values, %d jobs, %d users", reg.name, valueSize, jobs, users),
				"scheduler", "committed", "aborts", "rollbacks", "MB-written", "self-check")
			for _, sched := range []online.Scheduler{
				online.NewStrict2PL(lockmgr.WoundWait),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, 1),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, 8),
			} {
				name, shards := "central/"+sched.Name(), 1
				if cs, ok := sched.(online.ConcurrentScheduler); ok {
					name, shards = sched.Name(), cs.NumShards()
				}
				kv := storage.NewKV(storage.Config{Shards: shards, ValueSize: valueSize, Recycle: true})
				inst := sim.Instantiate(reg.template, jobs)
				m, err := sim.Run(sim.Config{System: inst, Sched: sched, Backend: kv, Users: users, Seed: 1979})
				if err != nil {
					return nil, err
				}
				if m.Committed != jobs {
					return nil, fmt.Errorf("E9: %s committed %d of %d", name, m.Committed, jobs)
				}
				if err := checkReplay(inst, m.Output, kv.State()); err != nil {
					return nil, fmt.Errorf("E9: %s: %w", name, err)
				}
				st := kv.Stats()
				t.AddRow(name, m.Committed, m.Aborts, st.Rollbacks,
					float64(st.BytesWritten)/(1<<20), "state==replay")
			}
			res.Tables = append(res.Tables, t)
		}
	}
	return res, nil
}

// E11NativeTimestampOrdering runs the natively concurrent
// timestamp-ordering scheduler (online.ConcurrentTO: lock-free sharded
// atomic timestamp table, no mutex on any path) beside the paper's object —
// the single-threaded TO under online.Mutexed, one shard, exactly TO's
// fixpoint set — and natively sharded strict 2PL, across shard count ×
// access skew. Cells and self-checks are nativeVsMutexedTables'.
func E11NativeTimestampOrdering() (*Result, error) {
	tables, err := nativeVsMutexedTables("E11",
		func() []online.ConcurrentScheduler {
			return []online.ConcurrentScheduler{online.NewMutexed(online.NewTO())}
		},
		func(shards int) []online.ConcurrentScheduler {
			return []online.ConcurrentScheduler{
				online.NewConcurrentTO(shards),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			}
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "E11",
		Title: "Native timestamp ordering — ConcurrentTO vs Mutexed(TO) vs strict 2PL across shards × skew",
		Text: "cto(n) = natively concurrent TO (lock-free sharded atomic timestamp table); " +
			"mutexed/to/basic = the single-threaded TO behind one mutex (one shard whatever n is, so it " +
			"runs once per regime); 2pl-sharded(n) = natively sharded strict 2PL. The disjoint " +
			"regime self-checks committed state == committed replay on the storage backend; the skewed " +
			"regime (real conflicts) self-checks conflict-serializability of the committed schedule.",
		Tables: tables,
	}, nil
}

// nativeVsMutexedTables runs the cells E11 and E15 share: per access regime
// (disjoint across shards, skewed onto a hotspot) one table with the
// mutexed baselines first — sequential schedulers under online.Mutexed,
// one shard by construction — and then the native(shards) schedulers at 1
// and 4 shards.
//
// Self-checks per cell: on the disjoint regime every granted step executes
// against the storage backend and the committed state must equal core.Exec
// of the committed schedule — with zero cross-transaction conflicts the
// invariant holds for every scheduler, non-strict ones included. On the
// skewed regime (real conflicts, where non-strict execution may
// legitimately diverge from the committed replay — see internal/storage)
// the check is the schedulers' contract instead: all jobs commit and the
// committed schedule is conflict-serializable.
func nativeVsMutexedTables(id string, mutexed func() []online.ConcurrentScheduler,
	native func(shards int) []online.ConcurrentScheduler) ([]*report.Table, error) {
	const jobs, users = 48, 12
	regimes := []struct {
		name     string
		disjoint bool
		template *core.System
	}{
		{"disjoint across shards", true, workload.Disjoint(jobs, 3)},
		{"skewed access (hotspot)", false, workload.Random(workload.RandomConfig{
			NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 8, Hotspot: 1}, 1979)},
	}
	var tables []*report.Table
	for _, reg := range regimes {
		t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users", reg.name, jobs, users),
			"scheduler", "committed", "aborts", "self-check")
		scheds := mutexed()
		for _, shards := range []int{1, 4} {
			scheds = append(scheds, native(shards)...)
		}
		for _, sched := range scheds {
			cfg := sim.Config{System: sim.Instantiate(reg.template, jobs), Sched: sched,
				Users: users, Seed: 1979, MaxRestarts: maxRestarts}
			check := "schedule CSR"
			if reg.disjoint {
				cfg.Backend = storage.NewKV(storage.Config{Shards: sched.NumShards(), ValueSize: 256})
				check = "state==replay"
			}
			m, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("%s: %s committed %d of %d on %s", id, sched.Name(), m.Committed, jobs, reg.name)
			}
			if reg.disjoint {
				err = checkReplay(cfg.System, m.Output, cfg.Backend.State())
			} else {
				err = checkCSR(cfg.System, m.Output)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %s on %s: %w", id, sched.Name(), reg.name, err)
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, check)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// E12MultiversionReadScaling sweeps the read-mostly workload's read
// fraction at high skew (every transaction hammers a tiny hot set) across
// the multiversion scheduler, natively sharded strict 2PL and native
// timestamp ordering, all on the version-chain KV. Under mv, read-only
// transactions never enter the grant machinery — the runtime serves them
// from pinned storage snapshots with zero locks; under 2pl the same
// readers take read locks on the hot set and wait on the writers'
// exclusive locks.
//
// Self-checks per cell: everything commits, and for mv and 2pl the
// committed backend state must equal core.Exec of the committed schedule —
// mv holds write claims to commit and its writers are pure increments, so
// its write set executes strictly (the snapshot-served read-only
// transactions are appended to close the schedule; all-Read, they cannot
// move state). cto's conflicting writes are not strict, so its check is
// conflict-serializability of the committed schedule instead (see E11).
func E12MultiversionReadScaling() (*Result, error) {
	const jobs, users, shards = 64, 16, 4
	res := &Result{
		ID:    "E12",
		Title: "Multiversion read scaling — mv vs strict 2PL vs cto across read fraction at high skew",
		Text: "mv(n) = multiversion/optimistic scheduler: read-only transactions served from pinned " +
			"lock-free storage snapshots, writers claim-then-commit with first-writer-wins; " +
			"2pl-sharded(n) = natively sharded strict 2PL; cto(n) = native timestamp ordering. " +
			"snap-reads counts reads served by the snapshot path, ver-gced the superseded versions " +
			"collected. Self-check per cell: state==replay for mv and 2pl (strict write sets), " +
			"schedule CSR for cto.",
	}
	for _, rf := range []float64{0.5, 0.9, 0.99} {
		template := workload.ReadMostly(workload.ReadMostlyConfig{
			Jobs: jobs, Steps: 4, ReadFrac: rf, Vars: 32, HotFrac: 0.9, HotVars: 2}, 1979)
		t := report.NewTable(fmt.Sprintf("readfrac %.2f, %d jobs, %d users, %d shards", rf, jobs, users, shards),
			"scheduler", "committed", "aborts", "snap-reads", "ver-gced", "self-check")
		for _, sched := range []online.Scheduler{
			online.NewConcurrentMV(shards),
			online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			online.NewConcurrentTO(shards),
		} {
			kv := storage.NewKV(storage.Config{Shards: shards, ValueSize: 256})
			cfg := sim.Config{System: sim.Instantiate(template, jobs), Sched: sched,
				Backend: kv, Users: users, Seed: 1979, MaxRestarts: maxRestarts}
			m, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("E12: %s committed %d of %d at readfrac %.2f", sched.Name(), m.Committed, jobs, rf)
			}
			check := "state==replay"
			if _, isTO := sched.(*online.ConcurrentTO); isTO {
				check = "schedule CSR"
				err = checkCSR(cfg.System, m.Output)
			} else {
				// Close the schedule for replay: read-only transactions the
				// snapshot path served are absent from Output (they produce
				// no granted steps); all-Read, appending them cannot move
				// the replayed state.
				full := append([]core.StepID{}, m.Output...)
				seen := make([]int, cfg.System.NumTxs())
				for _, id := range m.Output {
					seen[id.Tx]++
				}
				for tx := range seen {
					if seen[tx] == 0 {
						for idx := range cfg.System.Txs[tx].Steps {
							full = append(full, core.StepID{Tx: tx, Idx: idx})
						}
					}
				}
				err = checkReplay(cfg.System, full, kv.State())
			}
			if err != nil {
				return nil, fmt.Errorf("E12: %s at readfrac %.2f: %w", sched.Name(), rf, err)
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, m.SnapshotReads, m.VersionGCed, check)
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// durableCell is one run on the disk backend that passed runDurable's
// self-check.
type durableCell struct {
	m         *sim.Metrics
	live      storage.DurabilityStats // read after Close, so no checkpoint is half-finished
	recovered storage.DurabilityStats // of the OpenDisk that followed
	files     int                     // on-disk footprint after Close
	bytes     int64
}

// runDurable runs one cell on a fresh disk backend and makes the
// durability self-check: every job commits, the live state equals core.Exec
// of the committed schedule, and after Close the store reopened by OpenDisk
// recovers that same state from a clean (untruncated) log.
func runDurable(cfg storage.Config, run sim.Config) (c durableCell, err error) {
	be, err := storage.NewDisk(cfg)
	if err != nil {
		return c, err
	}
	defer be.Destroy()
	run.Backend = be
	if c.m, err = sim.Run(run); err != nil {
		return c, err
	}
	if jobs := run.System.NumTxs(); c.m.Committed != jobs {
		return c, fmt.Errorf("committed %d of %d", c.m.Committed, jobs)
	}
	if err := checkReplay(run.System, c.m.Output, be.State()); err != nil {
		return c, fmt.Errorf("live: %w", err)
	}
	if err := be.Close(); err != nil {
		return c, fmt.Errorf("close: %w", err)
	}
	c.live = be.DurabilityStats()
	if c.files, c.bytes, err = walFootprint(be.Dir()); err != nil {
		return c, fmt.Errorf("footprint: %w", err)
	}
	r, err := storage.OpenDisk(storage.Config{Dir: be.Dir()})
	if err != nil {
		return c, fmt.Errorf("recovery: %w", err)
	}
	recovered := r.State()
	c.recovered = r.DurabilityStats()
	r.Close()
	if err := checkReplay(run.System, c.m.Output, recovered); err != nil {
		return c, fmt.Errorf("recovered: %w", err)
	}
	if c.recovered.WALTruncated != 0 {
		return c, fmt.Errorf("clean shutdown recovered a truncated log")
	}
	return c, nil
}

// walFootprint sums the disk backend's on-disk files (segments and
// checkpoint files; the advisory LOCK file is bookkeeping, not state).
func walFootprint(dir string) (files int, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}

// E13DurableCommit runs the durable disk backend (append-only checksummed
// WAL segments, redo-only commit records, checkpoint + redo recovery)
// across the three fsync policies on the conflict-free disjoint workload,
// once per scheduler: natively sharded strict 2PL and native timestamp
// ordering. Both commit through the same write-buffered log — uncommitted
// writes never reach it, which is what makes the non-strict scheduler
// recoverable too. fsync=always syncs inside every commit; fsync=group
// defers to the group-commit pipeline, one fsync per drained group;
// fsync=never leaves flushing to the OS (crash may lose commits, never
// tear them).
//
// Self-checks per cell: runDurable's live == replay == recovered with a
// clean log; and per scheduler, fsync=group must issue
// strictly fewer fsyncs than fsync=always — the amortization group commit
// exists for.
func E13DurableCommit() (*Result, error) {
	const jobs, users, shards = 128, 16, 4
	res := &Result{
		ID:    "E13",
		Title: "Durable commit — fsync policy on the WAL disk backend (2pl-sharded and cto)",
		Text: "Disjoint workload (zero conflicts). fsync=always pays one fsync per commit; " +
			"fsync=group pays one per drained commit group; fsync=never defers to the OS. " +
			"Self-check per cell: live state == committed replay == state recovered by OpenDisk " +
			"after Close, with a clean log tail; fsync=group issues fewer fsyncs than fsync=always.",
	}
	template := workload.Disjoint(jobs, 3)
	scheds := []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"2pl-sharded", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards) }},
		{"cto", func() online.Scheduler { return online.NewConcurrentTO(shards) }},
	}
	for _, sc := range scheds {
		t := report.NewTable(fmt.Sprintf("%s, %d jobs, %d users, %d shards", sc.name, jobs, users, shards),
			"fsync", "committed", "fsyncs", "wal-KB", "group-size", "self-check")
		fsyncs := map[storage.FsyncPolicy]int64{}
		for _, policy := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncGroup, storage.FsyncNever} {
			c, err := runDurable(storage.Config{Fsync: policy}, sim.Config{
				System: sim.Instantiate(template, jobs), Sched: sc.mk(),
				Users: users, Seed: 1979,
			})
			if err != nil {
				return nil, fmt.Errorf("E13: %s fsync=%s: %w", sc.name, policy, err)
			}
			fsyncs[policy] = c.m.Fsyncs
			t.AddRow(policy.String(), c.m.Committed, c.m.Fsyncs, float64(c.m.WALBytes)/1024,
				c.m.GroupSize(), "recovered==replay")
		}
		res.Tables = append(res.Tables, t)
		always, group := fsyncs[storage.FsyncAlways], fsyncs[storage.FsyncGroup]
		if group >= always {
			return nil, fmt.Errorf("E13: %s: fsync=group issued %d fsyncs, not fewer than fsync=always's %d",
				sc.name, group, always)
		}
		res.Text += fmt.Sprintf("\n%s: fsync=group %d fsyncs vs fsync=always %d.", sc.name, group, always)
	}
	return res, nil
}

// E14CheckpointedWAL runs the online fuzzy checkpointer: checkpoint
// interval × commit volume on the disjoint workload, reporting the
// post-run on-disk footprint (segments + checkpoint files) and what the
// subsequent OpenDisk actually had to replay. Without checkpointing
// (interval 0) both grow linearly with commit volume — the log IS the
// database, and it only shrinks at recovery. With the checkpointer armed,
// sealed segments behind each durable checkpoint marker are retired
// online, so footprint and recovery work stay near one interval's worth
// regardless of how much history the run committed — the property that
// lets a disk backend run forever.
//
// Self-checks per cell: runDurable's live == replay == recovered with a
// clean log; the checkpointer is never degraded (CheckpointerOff) on a
// healthy filesystem; at the top volume every non-zero interval has
// checkpointed and ends with a strictly smaller footprint than the
// interval-0 control. The intervals are sized for that: the top volume
// appends about 35KB of commit records, four times the largest interval.
func E14CheckpointedWAL() (*Result, error) {
	const users, shards, segBytes = 16, 4, 4096
	volumes := []int{128, 1024}
	res := &Result{
		ID:    "E14",
		Title: "Online fuzzy checkpointing — interval × commit volume on the WAL disk backend",
		Text: "Disjoint workload under sharded strict 2PL (group " +
			"commit). interval is Config.CheckpointBytes: WAL bytes between background fuzzy " +
			"checkpoints (0 = off). footprint is the on-disk bytes (segments + checkpoint " +
			"files) after a clean Close; recovery-KB is what the subsequent OpenDisk replayed " +
			"(checkpoint + log tail). Self-check per cell: live state == committed replay == " +
			"recovered state, clean log, checkpointer healthy; at the top volume every " +
			"non-zero interval must have checkpointed and beat the interval-0 footprint.",
	}
	t := report.NewTable(fmt.Sprintf("%d users, %d shards, %dB segments", users, shards, segBytes),
		"interval-B", "jobs", "committed", "checkpoints", "segs-retired", "footprint-KB", "recovery-KB", "self-check")
	top := volumes[len(volumes)-1]
	var controlKB float64 // interval 0 at the top volume; interval 0 runs first
	for _, interval := range []int{0, 4096, 8192} {
		for _, volume := range volumes {
			label := fmt.Sprintf("interval=%d volume=%d", interval, volume)
			c, err := runDurable(storage.Config{
				Fsync: storage.FsyncGroup, SegmentBytes: segBytes, CheckpointBytes: interval,
			}, sim.Config{
				System: sim.Instantiate(workload.Disjoint(volume, 3), volume),
				Sched:  online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
				Users:  users, Seed: 1979,
			})
			if err != nil {
				return nil, fmt.Errorf("E14: %s: %w", label, err)
			}
			if c.live.CheckpointerOff {
				return nil, fmt.Errorf("E14: %s checkpointer degraded on a healthy filesystem", label)
			}
			kb := float64(c.bytes) / 1024
			switch {
			case volume != top:
			case interval == 0:
				controlKB = kb
			case c.live.Checkpoints == 0:
				return nil, fmt.Errorf("E14: %s never checkpointed", label)
			case kb >= controlKB:
				return nil, fmt.Errorf("E14: %s footprint %.1fKB not below the interval-0 control %.1fKB",
					label, kb, controlKB)
			default:
				res.Text += fmt.Sprintf("\ninterval %dB at %d jobs: footprint %.1fKB vs %.1fKB unchecked (%.1fx smaller).",
					interval, top, kb, controlKB, controlKB/kb)
			}
			t.AddRow(interval, volume, c.m.Committed, c.live.Checkpoints, c.live.SegmentsRetired,
				fmt.Sprintf("%.1f (%d files)", kb, c.files),
				float64(c.recovered.RecoveryBytes)/1024, "recovered==replay")
		}
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}

// E15NativeSGTOCC runs the natively concurrent serialization-graph and
// optimistic schedulers (online.ConcurrentSGT on the sequential SGT's dense
// graph behind one mutex, online.ConcurrentOCC on epoch-based backward
// validation) beside the paper's objects — the single-threaded SGT and
// OCC under online.Mutexed, one shard, exactly their fixpoint sets — with
// the natively concurrent TO and strict 2PL as reference points, across
// shard count × access skew. Cells and self-checks are nativeVsMutexedTables'
// (shared with E11).
func E15NativeSGTOCC() (*Result, error) {
	tables, err := nativeVsMutexedTables("E15",
		func() []online.ConcurrentScheduler {
			return []online.ConcurrentScheduler{
				online.NewMutexed(online.NewSGTAborting()),
				online.NewMutexed(online.NewOCC()),
			}
		},
		func(shards int) []online.ConcurrentScheduler {
			return []online.ConcurrentScheduler{
				online.NewConcurrentSGTAborting(shards),
				online.NewConcurrentOCC(shards),
				online.NewConcurrentTO(shards),
				online.NewConcurrentStrict2PL(lockmgr.WoundWait, shards),
			}
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "E15",
		Title: "Native SGT + OCC — one-mutex serialization graph and epoch validation vs Mutexed(SGT)/Mutexed(OCC) across shards × skew",
		Text: "csgt(n)/abort = natively concurrent SGT (conflicts found under the shard latches, the " +
			"sequential SGT's dense graph behind one mutex, lock-free zero-conflict grants); " +
			"cocc(n)/backward = natively concurrent OCC (epoch-based backward " +
			"validation, no global critical section); mutexed/sgt/abort and mutexed/occ/backward = the " +
			"single-threaded originals behind one mutex (one shard whatever n is, so they run " +
			"once per regime); cto(n) and 2pl-sharded(n) are the natively concurrent reference points. " +
			"The disjoint regime self-checks committed state == committed replay on the storage backend; " +
			"the skewed regime (real conflicts) self-checks conflict-serializability of the committed schedule.",
		Tables: tables,
	}, nil
}
