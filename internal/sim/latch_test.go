package sim

// Coverage for run-to-completion dispatch: decisions on the user goroutine
// under the shard latch, parking without a loop, wake-ups by whoever
// released. CI runs this file under -race -count=5.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/txtab"
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
		if err := check.Replay(inst, m.Output, be.State()); err != nil {
			t.Fatalf("run %d (seed %d): %v", run, run, err)
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
				if err := check.CSR(c.sys, m.Output); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := check.Replay(c.sys, m.Output, be.State()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
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

// TestRunStateCensus pins the two rules read off the users' state words:
// mustYield at a job end and stalled for the deadlock breaker.
func TestRunStateCensus(t *testing.T) {
	const (
		I = stateIdle
		R = stateRunning
		W = stateWaiting
		P = stateParked
	)
	slots := func(states []int32) []userSlot {
		us := make([]userSlot, len(states))
		for i, st := range states {
			us[i].state.Store(st)
		}
		return us
	}
	yields := []struct {
		name        string
		states      []int32
		self, procs int
		want        bool
	}{
		{"another waiting", []int32{R, W, I, I}, 0, 2, true},
		{"another parked", []int32{R, I, P, I}, 0, 2, true},
		{"procs others busy", []int32{I, R, R, I}, 0, 2, true},
		{"more than procs others busy", []int32{I, R, R, R, I}, 0, 2, true},
		{"fewer than procs others busy", []int32{I, R, I, I}, 0, 2, false},
		{"self not counted", []int32{W, R, I}, 0, 2, false},
		{"self busy, others idle", []int32{I, I, R}, 2, 1, false},
		{"one proc, one other busy", []int32{I, I, R}, 0, 1, true},
		{"users fit on procs, another parked", []int32{R, P}, 0, 2, false},
		{"users fit on procs, all busy", []int32{R, R, R, R}, 0, 4, false},
	}
	for _, c := range yields {
		if got := mustYield(slots(c.states), c.self, c.procs); got != c.want {
			t.Errorf("mustYield %s (%v, self %d, procs %d) = %v, want %v", c.name, c.states, c.self, c.procs, got, c.want)
		}
	}
	stalls := []struct {
		name     string
		states   []int32
		wantBusy int
		want     bool
	}{
		{"no users", nil, 0, false},
		{"all idle", []int32{I, I}, 0, false},
		{"every busy user parked", []int32{P, I, P}, 2, true},
		{"one parked, rest idle", []int32{I, P, I}, 1, true},
		{"running committer", []int32{P, R, P}, 3, false},
		{"backing off", []int32{P, W}, 2, false},
	}
	for _, c := range stalls {
		busy, all := stalled(slots(c.states))
		if busy != c.wantBusy || all != c.want {
			t.Errorf("stalled %s (%v) = %d, %v, want %d, %v", c.name, c.states, busy, all, c.wantBusy, c.want)
		}
	}
}

// TestBreakerNoWakeupDependsOnWatchdog switches the watchdog tick off (one
// hour) and runs the cross pattern under detection-based 2PL with more
// users than processors: every deadlock must be broken by the signal of the
// user that parked last or of the one whose job end left only parked users
// with a job, or a run hangs.
func TestBreakerNoWakeupDependsOnWatchdog(t *testing.T) {
	defer func(d time.Duration) { watchdogPeriod = d }(watchdogPeriod)
	watchdogPeriod = time.Hour
	const jobs, runs = 32, 4
	users := max(8, 2*runtime.GOMAXPROCS(0))
	inst := Instantiate(workload.Cross(), jobs)
	breaks := 0
	for run := 0; run < runs; run++ {
		m := runOrHang(t, Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.Detect, 4),
			Users: users, Seed: int64(run), ExecTime: 20 * time.Microsecond}, 30*time.Second)
		if m.Committed != jobs {
			t.Fatalf("run %d: committed %d of %d (aborts=%d breaks=%d)", run, m.Committed, jobs, m.Aborts, m.DeadlockBreaks)
		}
		breaks += m.DeadlockBreaks
	}
	if breaks == 0 {
		t.Fatalf("no deadlock in %d runs; the breaker was not exercised", runs)
	}
}

// TestYieldsCounted: users that fit on the processors never yield, and 48
// wound-wait users on the hot shard do. Their steps sleep 20 µs of
// ExecTime, so on any processor count some user is mid-transaction and
// parks or waits while another ends a job.
func TestYieldsCounted(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	m := runOrHang(t, Config{System: Instantiate(workload.HotShard(), 96),
		Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4), Users: procs, Seed: 1}, 30*time.Second)
	if m.Yields != 0 {
		t.Fatalf("%d yields with %d users on %d processors", m.Yields, procs, procs)
	}
	users := max(48, 2*procs)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 32})
	m = runOrHang(t, Config{System: Instantiate(workload.HotShard(), 96),
		Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4), Backend: be, Users: users, Seed: 1,
		ExecTime: 20 * time.Microsecond}, 30*time.Second)
	if m.Yields == 0 {
		t.Fatalf("no yield with %d users on %d processors (parked waits: %d)", users, procs, m.WaitNs.N())
	}
}

// TestJobCursorAloneOnLine: the job cursor every claim writes keeps a
// cache line of its own, away from the run fields every step reads.
func TestJobCursorAloneOnLine(t *testing.T) {
	if err := txtab.AloneOnLine(reflect.TypeFor[shardedRun](), "nextJob"); err != nil {
		t.Fatal(err)
	}
}
