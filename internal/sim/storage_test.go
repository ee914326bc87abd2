package sim

// Real-storage coverage for both runtimes (the centralized scheduler
// goroutine and run-to-completion under shard latches): every test executes granted
// steps against the sharded KV backend and checks the replay invariant —
// the committed backend state equals core.Exec of the committed schedule.
// The invariant is guaranteed for strict executions (serial and the strict
// 2PL family; see internal/storage), which is exactly the scheduler set
// enumerated here. CI runs this file under -race.

import (
	"fmt"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// strictSchedulers enumerates every strict scheduler configuration, central
// and sharded: the universe for which undo-log rollback guarantees that the
// backend state matches the committed replay.
func strictSchedulers() []struct {
	name string
	mk   func() online.Scheduler
} {
	return []struct {
		name string
		mk   func() online.Scheduler
	}{
		{"central/serial", func() online.Scheduler { return online.NewSerial() }},
		{"central/2pl-detect", func() online.Scheduler { return online.NewStrict2PL(lockmgr.Detect) }},
		{"central/2pl-nowait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.NoWait) }},
		{"central/2pl-waitdie", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WaitDie) }},
		{"central/2pl-woundwait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.WoundWait) }},
		{"central/2pl-conservative", func() online.Scheduler { return online.NewConservative2PL() }},
		{"mutexed/2pl-woundwait", func() online.Scheduler { return online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)) }},
		{"mutexed/2pl-detect", func() online.Scheduler { return online.NewMutexed(online.NewStrict2PL(lockmgr.Detect)) }},
		{"mutexed/serial", func() online.Scheduler { return online.NewMutexed(online.NewSerial()) }},
		{"2pl-sharded1/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 1) }},
		{"2pl-sharded4/detect", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.Detect, 4) }},
		{"2pl-sharded4/waitdie", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WaitDie, 4) }},
		{"2pl-sharded4/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }},
		{"2pl-sharded16/nowait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.NoWait, 16) }},
	}
}

// checkReplayInvariant runs the configuration with a fresh KV backend and
// fails unless all jobs commit and the backend state equals the serial
// replay of the committed schedule. batch only sets the ignored
// Config.Batch; it goes with the field.
func checkReplayInvariant(t *testing.T, name string, mk func() online.Scheduler, template *core.System, jobs, users, valueSize int, seed int64, batch int) *Metrics {
	t.Helper()
	inst := Instantiate(template, jobs)
	shards := 1
	if cs, ok := mk().(online.ConcurrentScheduler); ok {
		shards = cs.NumShards()
	}
	be := storage.NewKV(storage.Config{Shards: shards, ValueSize: valueSize})
	m, err := Run(Config{System: inst, Sched: mk(), Backend: be, Users: users, Seed: seed, Batch: batch})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Committed != jobs {
		t.Fatalf("%s committed %d of %d (aborts=%d breaks=%d)", name, m.Committed, jobs, m.Aborts, m.DeadlockBreaks)
	}
	replay, err := core.Exec(inst, m.Output, inst.InitialStates()[0])
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	if got := be.State(); !got.Equal(replay) {
		t.Fatalf("%s: backend state diverged from committed replay:\n  backend %v\n  replay  %v", name, got, replay)
	}
	return m
}

// TestBackendStateMatchesCommittedReplay is the acceptance invariant: for
// every strict scheduler — central and sharded — a run over real storage
// leaves the backend in exactly the state of serially replaying the
// committed schedule, on workloads spanning low contention, interpreted
// banking transfers, and a deadlock-prone cross pattern.
// Config.Batch is ignored, so the batch1 and batch8 rows are two runs of
// one configuration; they keep their names until the field goes.
func TestBackendStateMatchesCommittedReplay(t *testing.T) {
	templates := []struct {
		name     string
		template *core.System
		jobs     int
		users    int
	}{
		{"banking", workload.Banking(), 12, 6},
		{"cross", workload.Cross(), 10, 5},
		{"random", workload.Random(workload.RandomConfig{NumTxs: 8, MinSteps: 2, MaxSteps: 3, NumVars: 6, Hotspot: 1}, 7), 16, 8},
	}
	for _, batch := range []int{1, 8} {
		for _, cfg := range strictSchedulers() {
			for _, w := range templates {
				t.Run(fmt.Sprintf("batch%d/%s/%s", batch, cfg.name, w.name), func(t *testing.T) {
					checkReplayInvariant(t, cfg.name, cfg.mk, w.template, w.jobs, w.users, 128, 42, batch)
				})
			}
		}
	}
}

// TestBackendAbortRollbackUnderContention is the abort-heavy stress: a
// hotspot workload under no-wait 2PL (which aborts on every lock conflict)
// forces many concurrent rollbacks across the sharded runtime, and the
// final state must still be byte-for-byte the committed replay — no
// aborted write may leak.
func TestBackendAbortRollbackUnderContention(t *testing.T) {
	hot := (&core.System{
		Name: "hotspot",
		Txs: []core.Transaction{
			{Steps: []core.Step{
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
				{Var: "g", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 2 }},
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] * 2 }},
			}},
		},
	}).Normalize()
	anyAborts := false
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range []struct {
			name string
			mk   func() online.Scheduler
		}{
			{"central/2pl-nowait", func() online.Scheduler { return online.NewStrict2PL(lockmgr.NoWait) }},
			{"2pl-sharded4/nowait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.NoWait, 4) }},
			{"2pl-sharded4/woundwait", func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }},
		} {
			m := checkReplayInvariant(t, cfg.name, cfg.mk, hot, 16, 8, 64, seed, 0)
			if m.Aborts > 0 {
				anyAborts = true
			}
		}
	}
	if !anyAborts {
		t.Fatal("stress produced no aborts; rollback path untested")
	}
}

// TestBackendExecMetrics: with a backend the Section 6 execution-time
// component is measured from real work.
func TestBackendExecMetrics(t *testing.T) {
	inst := Instantiate(workload.Banking(), 8)
	be := storage.NewKV(storage.Config{Shards: 4, ValueSize: 1024})
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4), Backend: be, Users: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecNs.N() < inst.StepCount() {
		t.Errorf("exec samples = %d, want >= %d", m.ExecNs.N(), inst.StepCount())
	}
	st := be.Stats()
	if st.Reads == 0 || st.Writes == 0 || st.BytesWritten == 0 {
		t.Errorf("backend did no work: %+v", st)
	}
}

// TestBackendRejectsUninterpretedSystem: backend execution requires an
// executable system.
func TestBackendRejectsUninterpretedSystem(t *testing.T) {
	sys := (&core.System{
		Txs: []core.Transaction{{Steps: []core.Step{{Var: "x", Kind: core.Update}}}},
	}).Normalize()
	be := storage.NewKV(storage.Config{Shards: 1})
	if _, err := Run(Config{System: sys, Sched: online.NewSerial(), Backend: be, Users: 1}); err == nil {
		t.Fatal("uninterpreted system accepted with backend")
	}
}

// TestBackendSweepValueSizes exercises payload sizes from scalar-only to
// multi-KB through the full sharded runtime.
func TestBackendSweepValueSizes(t *testing.T) {
	for _, size := range []int{0, 8, 4096} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			checkReplayInvariant(t, "2pl-sharded4/woundwait",
				func() online.Scheduler { return online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4) },
				workload.Banking(), 12, 6, size, 11, 0)
		})
	}
}
