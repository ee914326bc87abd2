package sim

// Coverage for the natively concurrent timestamp-ordering scheduler driven
// by the real dispatch runtime, plus the commit path through the
// group-commit pipeline.
// CI runs this file under -race -count=5 in the concurrency stress job.

import (
	"testing"

	"optcc/internal/conflict"
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
// so this is a true end-to-end self-check of the lock-free hot path.
func TestConcurrentTODisjointStateMatchesReplay(t *testing.T) {
	const jobs = 24
	for _, shards := range []int{1, 4} {
		inst := Instantiate(workload.Disjoint(jobs, 3), jobs)
		be := storage.NewKV(storage.Config{Shards: shards, ValueSize: 128})
		m, err := Run(Config{System: inst, Sched: online.NewConcurrentTO(shards),
			Backend: be, Users: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("shards=%d: committed %d of %d", shards, m.Committed, jobs)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("shards=%d: backend state diverged from committed replay", shards)
		}
	}
}

// TestConcurrentTOContendedSerializable: native TO under real conflicts
// (hotspot workload, many users) must still commit everything, and in
// basic mode the committed schedule must be conflict-serializable — the
// timestamp-order composition argument, exercised concurrently.
// Thomas mode is exempt from the CSR check by design: the Thomas write
// rule grants an obsolete blind write as a no-op, which still appears in
// the granted-step log, so the log's conflict graph may legitimately show
// a timestamp inversion on the dead write (the classical sense in which
// TWR exceeds CSR).
func TestConcurrentTOContendedSerializable(t *testing.T) {
	const jobs = 24
	template := workload.Random(workload.RandomConfig{
		NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7)
	for _, thomas := range []bool{false, true} {
		sched := online.NewConcurrentTO(4)
		if thomas {
			sched = online.NewConcurrentTOThomas(4)
		}
		inst := Instantiate(template, jobs)
		m, err := Run(Config{System: inst, Sched: sched, Users: 8, Seed: 11, MaxRestarts: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != jobs {
			t.Fatalf("thomas=%v: committed %d of %d", thomas, m.Committed, jobs)
		}
		if thomas {
			continue
		}
		csr, _, err := conflict.Serializable(inst, m.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !csr {
			t.Fatal("non-serializable committed schedule under basic timestamp ordering")
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
	replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !be.State().Equal(replay) {
		t.Fatal("backend state diverged from committed replay")
	}
}
