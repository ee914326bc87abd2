package sim

// Coverage for the natively concurrent timestamp-ordering scheduler driven
// by the real dispatch runtime, plus the commit path through the
// group-commit pipeline.
// CI runs this file under -race -count=5 in the concurrency stress job.

import (
	"testing"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// TestConcurrentTODisjointStateMatchesReplay: native TO under the shard
// decision latches with real storage on the conflict-free multi-shard
// workload. With no cross-transaction conflicts the committed backend
// state must equal the committed replay even for a non-strict scheduler,
// so this is a true end-to-end self-check of the lock-free hot path. The
// paper's single-threaded TO under Mutexed (one shard whatever the count)
// is held to the same check.
func TestConcurrentTODisjointStateMatchesReplay(t *testing.T) {
	checkDisjointReplay(t, online.NewConcurrentTO(1), online.NewConcurrentTO(4), online.NewMutexed(online.NewTO()))
}

// TestConcurrentTOContendedSerializable: native TO under real conflicts
// (the hotspot and read-mostly workloads, many users) must still commit
// everything, and in basic mode the committed schedule must be
// conflict-serializable — the timestamp-order composition argument,
// exercised concurrently; the single-threaded TO under Mutexed is held to
// the same check.
// Thomas mode is exempt from the CSR check by design: the Thomas write
// rule grants an obsolete blind write as a no-op, which still appears in
// the granted-step log, so the log's conflict graph may legitimately show
// a timestamp inversion on the dead write (the classical sense in which
// TWR exceeds CSR).
func TestConcurrentTOContendedSerializable(t *testing.T) {
	const jobs, seed = 24, 11
	for _, template := range []*core.System{
		workload.Random(workload.RandomConfig{NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7),
		workload.ReadMostly(workload.ReadMostlyConfig{Jobs: jobs, Steps: 4, ReadFrac: 0.9, Vars: 32, HotFrac: 0.9, HotVars: 2}, 1979),
	} {
		for _, c := range []struct {
			sched  online.ConcurrentScheduler
			thomas bool
		}{
			{online.NewConcurrentTO(1), false},
			{online.NewConcurrentTO(4), false},
			{online.NewConcurrentTOThomas(4), true},
			{online.NewMutexed(online.NewTO()), false},
		} {
			inst := Instantiate(template, jobs)
			m, err := Run(Config{System: inst, Sched: c.sched, Users: 8, Seed: seed, MaxRestarts: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if m.Committed != jobs {
				t.Fatalf("%s on %s: committed %d of %d", c.sched.Name(), template.Name, m.Committed, jobs)
			}
			if c.thomas {
				continue
			}
			if err := check.CSR(inst, m.Output); err != nil {
				t.Errorf("%s on %s seed %d: %v", c.sched.Name(), template.Name, seed, err)
			}
		}
	}
}

// TestUnbatchedCommitsThroughLanes: on a backend that syncs (a Disk under
// group fsync) the concurrent engine commits through the group-commit
// pipeline, so lock release is asynchronous. The pipeline must process every
// commit exactly once and preserve the replay invariant.
func TestUnbatchedCommitsThroughLanes(t *testing.T) {
	const jobs = 24
	inst := Instantiate(workload.HotShard(), jobs)
	be, err := storage.NewDisk(storage.Config{Dir: t.TempDir(), Fsync: storage.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
		Backend: be, Users: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	if m.GroupCommits != jobs {
		t.Fatalf("pipeline committed %d transactions, want %d", m.GroupCommits, jobs)
	}
	if m.CommitGroups < 1 || m.CommitGroups > jobs {
		t.Fatalf("implausible group count %d", m.CommitGroups)
	}
	if err := check.Replay(inst, m.Output, be.State()); err != nil {
		t.Fatal(err)
	}
}
