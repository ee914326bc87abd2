package sim

// Coverage for run-to-completion dispatch: decisions on the user goroutine
// under the shard latch, parking without a loop, wake-ups by whoever
// released. CI runs this file under -race -count=5.

import (
	"fmt"
	"testing"
	"time"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// runOrHang runs cfg and fails the test instead of hanging it when the run
// does not finish: a lost wake-up shows as a run that never ends. A
// finished run's Output must pass checkMerge.
func runOrHang(t *testing.T, cfg Config, limit time.Duration) *Metrics {
	t.Helper()
	type outcome struct {
		m   *Metrics
		r   *shardedRun
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		m, r, err := run(cfg)
		done <- outcome{m, r, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if err := checkMerge(o.r, o.m.Output); err != nil {
			t.Fatal(err)
		}
		return o.m
	case <-time.After(limit):
		t.Fatalf("run still going after %v: a parked request was never woken", limit)
		return nil
	}
}

// TestLatchNoWakeupDependsOnWatchdog switches the watchdog tick off (one
// hour) and hammers the lock-contended hot shard with far more users than
// shards: every park must be woken by the commit, abort or wound that
// unblocked it, or a run hangs. Wound-wait cannot deadlock, so the breaker
// has nothing to do either.
func TestLatchNoWakeupDependsOnWatchdog(t *testing.T) {
	defer func(d time.Duration) { watchdogPeriod = d }(watchdogPeriod)
	watchdogPeriod = time.Hour
	const jobs, users = 96, 48
	runs := 200
	if raceEnabled {
		// The race job repeats the package five times, and under its
		// slowdown 48 wound-wait users on two variables restart each other
		// some twenty times a job.
		runs = 12
	}
	inst := Instantiate(workload.HotShard(), jobs)
	for run := 0; run < runs; run++ {
		be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 32})
		m := runOrHang(t, Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
			Backend: be, Users: users, Seed: int64(run)}, 30*time.Second)
		if m.Committed != jobs {
			t.Fatalf("run %d: committed %d of %d (aborts=%d breaks=%d)", run, m.Committed, jobs, m.Aborts, m.DeadlockBreaks)
		}
		replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
		if err != nil {
			t.Fatalf("run %d: replay: %v", run, err)
		}
		if !be.State().Equal(replay) {
			t.Fatalf("run %d: backend state diverged from committed replay", run)
		}
	}
}

// TestLatchOrderingUsersFarAboveShards: with 48 users on 4 latches the
// merged shard logs must still be a legal, conflict-serializable schedule
// that keeps each variable's logged order (runOrHang's checkMerge) and
// whose replay is the backend's state, and every request must have left
// exactly one scheduling-or-waiting sample — on the lock-free hot shard
// (every decision on one latch, no conflicts) and on the contended
// hotspot mix (parks, wounds, restarts).
func TestLatchOrderingUsersFarAboveShards(t *testing.T) {
	const jobs, users = 192, 48
	cases := []struct {
		name string
		sys  *core.System
	}{
		{"hotshard-disjoint", workload.HotShardDisjoint(jobs, 4)},
		{"hotspot", workload.Random(workload.RandomConfig{NumTxs: jobs, MinSteps: 3, MaxSteps: 3, NumVars: 16, Hotspot: 1}, 11)},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 32})
				m := runOrHang(t, Config{System: c.sys, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
					Backend: be, Users: users, Seed: seed}, 30*time.Second)
				if m.Committed != jobs {
					t.Fatalf("committed %d of %d (aborts=%d breaks=%d)", m.Committed, jobs, m.Aborts, m.DeadlockBreaks)
				}
				if !m.Output.Legal(c.sys.Format()) {
					t.Fatal("output is not a legal schedule")
				}
				if csr, _, err := conflict.Serializable(c.sys, m.Output); err != nil || !csr {
					t.Fatalf("output not conflict-serializable (err=%v)", err)
				}
				replay, err := core.Exec(c.sys, m.Output, c.sys.InitialStates()[0])
				if err != nil {
					t.Fatal(err)
				}
				if !be.State().Equal(replay) {
					t.Fatal("backend state diverged from committed replay")
				}
				requests, steps := m.SchedNs.N()+m.WaitNs.N(), c.sys.StepCount()
				// An aborted attempt issued at most three requests; with no
				// aborts the count is exact.
				if requests < steps || requests > steps+3*m.Aborts {
					t.Fatalf("%d scheduling+waiting samples, want %d..%d", requests, steps, steps+3*m.Aborts)
				}
				if c.name == "hotshard-disjoint" && m.Aborts != 0 {
					t.Fatalf("%d aborts on a conflict-free workload", m.Aborts)
				}
			})
		}
	}
}
