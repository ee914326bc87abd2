package sim

// Coverage for the commit path on the concurrent engine: the storage
// group-commit pipeline for a backend that syncs, inline commits for every
// other backend, and the hot-shard replay invariant. CI runs this file
// under -race.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// hotShardSystem is the parking stress: every transaction hammers a
// two-variable hot set, so nearly every decision lands on one or two shard
// latches and requests park behind each other (workload.HotShard, also
// ccsim's -workload hotshard).
func hotShardSystem() *core.System { return workload.HotShard() }

// TestBatchedHotShard: the hot-shard stress against real storage must
// preserve the replay invariant under heavy conflict traffic, every parked
// request re-offered on its own. Config.Batch is ignored, so the batch2 and
// batch16 rows are two runs of one configuration; they keep their names
// until the field itself goes.
func TestBatchedHotShard(t *testing.T) {
	for _, batch := range []int{2, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("batch%d/seed%d", batch, seed), func(t *testing.T) {
				checkReplayInvariant(t, "2pl-sharded4/woundwait",
					func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) },
					hotShardSystem(), 16, 8, 64, seed, batch)
			})
		}
	}
}

// TestGroupCommitPipelineUsed: with a backend that syncs, commits must flow
// through the group-commit pipeline (backend commits on the driver, one sync
// and one lock release per group), every transaction must still commit
// exactly once, and the committed state must be the committed replay.
func TestGroupCommitPipelineUsed(t *testing.T) {
	const jobs = 12
	inst := Instantiate(hotShardSystem(), jobs)
	be := &syncCountingBackend{commitCountingBackend: &commitCountingBackend{
		Backend: storage.NewKV(storage.Config{Shards: 4, ValueSize: 32}), commits: map[int]int{}}}
	m, err := Run(Config{
		System:  inst,
		Sched:   online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
		Backend: be,
		Users:   6,
		Seed:    13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != jobs {
		t.Fatalf("committed %d of %d", m.Committed, jobs)
	}
	if m.GroupCommits != jobs || m.CommitGroups < 1 {
		t.Fatalf("pipeline committed %d transactions in %d groups, want %d", m.GroupCommits, m.CommitGroups, jobs)
	}
	if syncs := be.syncs.Load(); syncs != int64(m.CommitGroups) {
		t.Errorf("%d syncs for %d groups", syncs, m.CommitGroups)
	}
	be.checkOnce(t, jobs)
	checkReplay(t, inst, m, be.State())
}

// TestInlineCommitWithoutSyncer: a backend with nothing to sync — KV, Noop
// or none at all — gets no commit pipeline. Every transaction commits inline
// on its user goroutine, exactly once on the backend, and on KV the
// committed state is the committed replay. The hot shard parks requests,
// so the inline release must wake them too.
func TestInlineCommitWithoutSyncer(t *testing.T) {
	const jobs = 48
	inst := Instantiate(hotShardSystem(), jobs)
	for _, c := range []struct {
		name string
		be   storage.Backend
	}{
		{"kv", storage.NewKV(storage.Config{Shards: 4, ValueSize: 32})},
		{"noop", storage.NewNoop()},
		{"none", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4), Users: 8, Seed: 5}
			var be *commitCountingBackend
			if c.be != nil {
				be = &commitCountingBackend{Backend: c.be, commits: map[int]int{}}
				cfg.Backend = be
			}
			m := runMerged(t, cfg)
			if m.Committed != jobs {
				t.Fatalf("committed %d of %d", m.Committed, jobs)
			}
			if m.CommitGroups != 0 || m.GroupCommits != 0 {
				t.Fatalf("%d commits in %d groups without a syncing backend", m.GroupCommits, m.CommitGroups)
			}
			if be == nil {
				return
			}
			be.checkOnce(t, jobs)
			if c.name == "kv" {
				checkReplay(t, inst, m, be.State())
			}
		})
	}
}

// checkReplay requires state to equal the replay of the run's Output.
func checkReplay(t *testing.T, inst *core.System, m *Metrics, state core.DB) {
	t.Helper()
	replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !state.Equal(replay) {
		t.Fatal("backend state diverged from committed replay")
	}
}

// commitCountingBackend counts Backend.Commit calls per transaction.
type commitCountingBackend struct {
	storage.Backend
	mu      sync.Mutex
	commits map[int]int
}

func (b *commitCountingBackend) Commit(tx int) {
	b.mu.Lock()
	b.commits[tx]++
	b.mu.Unlock()
	b.Backend.Commit(tx)
}

// checkOnce requires every one of jobs transactions to have committed
// exactly once on the backend.
func (b *commitCountingBackend) checkOnce(t *testing.T, jobs int) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for tx := 0; tx < jobs; tx++ {
		if b.commits[tx] != 1 {
			t.Errorf("tx %d committed %d times on the backend", tx, b.commits[tx])
		}
	}
}

// syncCountingBackend is a commitCountingBackend that syncs
// (storage.GroupSyncer), counting the syncs: a memory backend the engine
// commits through the group-commit pipeline.
type syncCountingBackend struct {
	*commitCountingBackend
	syncs atomic.Int64
}

func (b *syncCountingBackend) GroupSync() error {
	b.syncs.Add(1)
	return nil
}

// TestShardedNameDuringRun hammers Scheduler.Name concurrently with a full
// run on the sharded engine: reporting a run while it is in flight must be
// race-free (Name reads nothing a decision writes — regression for a lazy
// Name write).
func TestShardedNameDuringRun(t *testing.T) {
	scheds := []online.ConcurrentScheduler{
		online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)),
		online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
	}
	inst := Instantiate(workload.Banking(), 8)
	for _, cs := range scheds {
		want := cs.Name()
		stop := make(chan struct{})
		var hammer sync.WaitGroup
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if got := cs.Name(); got != want {
						t.Errorf("Name changed mid-run: %q != %q", got, want)
						return
					}
				}
			}
		}()
		m, err := Run(Config{System: inst, Sched: cs, Users: 4, Seed: 21})
		close(stop)
		hammer.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 8 {
			t.Fatalf("%s committed %d of 8", want, m.Committed)
		}
	}
}
