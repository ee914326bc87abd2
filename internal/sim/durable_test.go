package sim

// Durable-backend coverage for both runtimes: the replay invariant now has
// to hold twice — once against the live disk backend, and again against
// the state OpenDisk recovers after the backend is closed. Every scheduler
// commits through the same write-buffered log; for the non-strict TO
// scheduler that is exactly what makes it recoverable.

import (
	"fmt"
	"strings"
	"testing"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// runDurable runs the configuration on a fresh disk backend (disk, in dir)
// and requires every job to commit. Returns the backend and the run
// metrics.
func runDurable(t *testing.T, name string, dir string, cfg Config, disk storage.Config) (*storage.Disk, *Metrics) {
	t.Helper()
	disk.Dir = dir
	be, err := storage.NewDisk(disk)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = be
	m, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if jobs := len(cfg.System.Txs); m.Committed != jobs {
		t.Fatalf("%s committed %d of %d (aborts=%d)", name, m.Committed, jobs, m.Aborts)
	}
	return be, m
}

// recovered closes be, recovers dir with OpenDisk, requires a clean log
// (nothing truncated) and returns the recovered state.
func recovered(t *testing.T, name string, be *storage.Disk, dir string) core.DB {
	t.Helper()
	if err := be.Close(); err != nil {
		t.Fatalf("%s: close: %v", name, err)
	}
	r, err := storage.OpenDisk(storage.Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: recovery: %v", name, err)
	}
	defer r.Close()
	if ds := r.DurabilityStats(); ds.WALTruncated != 0 {
		t.Fatalf("%s: clean shutdown recovered with WALTruncated=%d", name, ds.WALTruncated)
	}
	return r.State()
}

// checkDurableReplay runs the configuration on a fresh disk backend,
// checks the replay invariant against the live state, then closes the
// store, recovers it with OpenDisk, and checks the invariant again on the
// recovered state. Returns the run metrics and the closed store's
// durability stats.
func checkDurableReplay(t *testing.T, name string, mk func() online.Scheduler, template *core.System, jobs, users int, seed int64, batch int, disk storage.Config) (*Metrics, storage.DurabilityStats) {
	t.Helper()
	inst := Instantiate(template, jobs)
	dir := t.TempDir()
	be, m := runDurable(t, name, dir, Config{System: inst, Sched: mk(), Users: users, Seed: seed, Batch: batch}, disk)
	if err := check.Replay(inst, m.Output, be.State()); err != nil {
		t.Fatalf("%s seed %d: live: %v", name, seed, err)
	}
	if err := check.Replay(inst, m.Output, recovered(t, name, be, dir)); err != nil {
		t.Fatalf("%s seed %d: recovered: %v", name, seed, err)
	}
	return m, be.DurabilityStats()
}

// TestDiskBackendReplayAndRecovery: serial, strict 2PL and the natively
// concurrent (non-strict) TO scheduler on the disk backend, across both
// runtimes and all three fsync policies — the committed replay must match
// the live state AND the recovered state. Group commit must pay for
// itself: on the /disjoint rows (128 conflict-free jobs, 16 users)
// fsync=group issues fewer fsyncs than fsync=always, per scheduler; on
// banking's conflicts commits serialize and the counts may tie. The
// checkpointed row arms the background checkpointer with small segments,
// so recovery starts from a checkpoint and the log tail; it must have
// checkpointed and stayed healthy. Config.Batch is ignored, so the batch1
// and batch8 rows are two runs of one configuration; they keep their names
// until the field goes.
func TestDiskBackendReplayAndRecovery(t *testing.T) {
	scheds := []struct {
		name        string
		mk          func() online.Scheduler
		template    *core.System
		jobs, users int
		seed        int64
		disk        storage.Config // Fsync is set per row
	}{
		{"central/serial", func() online.Scheduler { return online.NewSerial() }, workload.Banking(), 12, 6, 42, storage.Config{}},
		{"central/2pl-woundwait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }, workload.Banking(), 12, 6, 42, storage.Config{}},
		{"2pl-sharded4/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }, workload.Banking(), 12, 6, 42, storage.Config{}},
		// TO grants writes without holding readers off them until commit,
		// so under conflicts its buffered reads may legitimately differ
		// from the granted-order replay; it runs the conflict-free workload.
		{"cto4", func() online.Scheduler { return online.NewConcurrentTO(4) }, workload.Disjoint(16, 2), 16, 8, 7, storage.Config{}},
		{"2pl-sharded4/disjoint", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }, workload.Disjoint(128, 3), 128, 16, 1979, storage.Config{}},
		{"cto4/disjoint", func() online.Scheduler { return online.NewConcurrentTO(4) }, workload.Disjoint(128, 3), 128, 16, 1979, storage.Config{}},
		{"2pl-sharded4/checkpointed", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) },
			workload.Disjoint(512, 3), 512, 16, 1979, storage.Config{SegmentBytes: 4096, CheckpointBytes: 4096}},
	}
	fsyncs := map[string]map[storage.FsyncPolicy]int64{}
	for _, fsync := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncGroup, storage.FsyncNever} {
		for _, batch := range []int{1, 8} {
			for _, sc := range scheds {
				name := fmt.Sprintf("%s/fsync-%s/batch%d", sc.name, fsync, batch)
				t.Run(name, func(t *testing.T) {
					disk := sc.disk
					disk.Fsync = fsync
					m, ds := checkDurableReplay(t, name, sc.mk, sc.template, sc.jobs, sc.users, sc.seed, batch, disk)
					if fsync != storage.FsyncNever && m.Fsyncs == 0 {
						t.Errorf("%s: no fsyncs recorded in metrics", name)
					}
					if m.WALBytes == 0 {
						t.Errorf("%s: no WAL bytes recorded in metrics", name)
					}
					if disk.CheckpointBytes > 0 && (ds.Checkpoints == 0 || ds.CheckpointerOff) {
						t.Errorf("%s: %d checkpoints, checkpointer off=%v", name, ds.Checkpoints, ds.CheckpointerOff)
					}
					key := fmt.Sprintf("%s/batch%d", sc.name, batch)
					if fsyncs[key] == nil {
						fsyncs[key] = map[storage.FsyncPolicy]int64{}
					}
					fsyncs[key][fsync] = m.Fsyncs
				})
			}
		}
	}
	for key, n := range fsyncs {
		always, okAlways := n[storage.FsyncAlways]
		group, okGroup := n[storage.FsyncGroup]
		if okAlways && okGroup && strings.Contains(key, "/disjoint/") && group >= always {
			t.Errorf("%s: fsync=group issued %d fsyncs, not fewer than fsync=always's %d", key, group, always)
		}
	}
}

// TestDiskBufferedNonStrictRecovery: the non-strict TO scheduler under real
// conflicts, where its reads may differ from the granted-order replay and
// restarts are routine. The write-buffered log holds only commit records,
// so whatever the live store ended with, recovery must reproduce exactly:
// no restarted attempt's writes reach the log. The batch rows differ only
// in the ignored Config.Batch, as in TestDiskBackendReplayAndRecovery.
func TestDiskBufferedNonStrictRecovery(t *testing.T) {
	const jobs = 24
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 4, Hotspot: 1}, 7)
	for _, batch := range []int{1, 8} {
		name := fmt.Sprintf("cto4/contended/batch%d", batch)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			be, _ := runDurable(t, name, dir, Config{System: Instantiate(template, jobs), Sched: online.NewConcurrentTO(4),
				Users: 16, Seed: 11, Batch: batch, MaxRestarts: 10000}, storage.Config{Fsync: storage.FsyncGroup})
			live := be.State()
			if got := recovered(t, name, be, dir); !got.Equal(live) {
				t.Fatalf("%s: recovered state != live\n  recovered %v\n  live      %v", name, got, live)
			}
		})
	}
}

// TestDiskRecoveryNsMetric: a run on a backend produced by OpenDisk
// carries the recovery wall time into the metrics.
func TestDiskRecoveryNsMetric(t *testing.T) {
	dir := t.TempDir()
	seed, err := storage.NewDisk(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seed.Reset(core.DB{"x": 1})
	seed.Close()
	be, err := storage.OpenDisk(storage.Config{Dir: dir, Fsync: storage.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	inst := Instantiate(workload.Banking(), 6)
	m, err := Run(Config{System: inst, Sched: online.NewStrict2PL(lockmgr.WoundWait), Backend: be, Users: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.RecoveryNs <= 0 {
		t.Errorf("RecoveryNs = %d, want > 0 after OpenDisk", m.RecoveryNs)
	}
	if m.Fsyncs == 0 {
		t.Errorf("Fsyncs = 0 on a durable run")
	}
}

// TestDiskSyncFailureSurfacesAsRunError: a durable backend whose fsync
// fails mid-run must fail the run — silent durability loss is the bug
// class this PR exists to rule out. Covers the sharded runtime's OnFail
// path (group commit) and the centralized runtime's per-commit GroupSync.
func TestDiskSyncFailureSurfacesAsRunError(t *testing.T) {
	for _, rt := range []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"central", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }},
		{"sharded", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 2) }},
	} {
		t.Run(rt.name, func(t *testing.T) {
			efs := storage.NewErrFS(storage.OSFS{})
			be, err := storage.NewDisk(storage.Config{Dir: t.TempDir(), FS: efs, Fsync: storage.FsyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			// Fail an operation far enough in to land inside the run (the
			// Reset consumes the first two).
			efs.FailAt(10)
			inst := Instantiate(workload.Banking(), 8)
			if _, err := Run(Config{System: inst, Sched: rt.mk(), Backend: be, Users: 4, Seed: 3}); err == nil {
				t.Fatal("run with injected fsync failure reported success")
			}
		})
	}
}
