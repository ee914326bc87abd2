package sim

// Dedicated concurrency coverage for the concurrent runtime: every test
// here decides under per-shard latches from many user goroutines and is
// meant to run under `go test -race` (CI does; see also the hotspot
// workload below, which maximizes cross-goroutine conflict traffic).

import (
	"fmt"
	"testing"
	"time"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/workload"
)

// concurrentSchedulers enumerates the ConcurrentScheduler configurations
// the sharded runtime must drive to completion.
func concurrentSchedulers() []online.ConcurrentScheduler {
	return []online.ConcurrentScheduler{
		online.NewConcurrentStrict2PL(lockmgr.Detect, 4),
		online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4),
		online.NewConcurrentStrict2PL(lockmgr.NoWait, 16),
		online.NewMutexed(online.NewStrict2PL(lockmgr.WoundWait)),
		online.NewMutexed(online.NewOCC()),
		online.NewMutexed(online.NewSGTAborting()),
		online.NewMutexed(online.NewSerial()),
	}
}

// TestShardedDispatchCompletes: every concurrent scheduler must commit all
// jobs under the per-shard decision latches, with a serializable output.
func TestShardedDispatchCompletes(t *testing.T) {
	const seed = 99
	inst := Instantiate(workload.Banking(), 12)
	for _, cs := range concurrentSchedulers() {
		m, err := Run(Config{System: inst, Sched: cs, Users: 6, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", cs.Name(), err)
		}
		if m.Committed != 12 {
			t.Fatalf("%s committed %d of 12 (aborts=%d breaks=%d)", cs.Name(), m.Committed, m.Aborts, m.DeadlockBreaks)
		}
		if !m.Output.Legal(inst.Format()) {
			t.Fatalf("%s output illegal", cs.Name())
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Errorf("%s seed %d: %v", cs.Name(), seed, err)
		}
	}
}

// TestShardedDispatchHotspot is the high-contention stress: every
// transaction hammers the same variable, so all traffic lands on one shard
// and the runtime's parking, kicking, wounding and deadlock-breaking paths
// all fire while other shards idle.
func TestShardedDispatchHotspot(t *testing.T) {
	hot := (&core.System{
		Name: "hotspot",
		Txs: []core.Transaction{
			{Steps: []core.Step{
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
			}},
		},
	}).Normalize()
	inst := Instantiate(hot, 16)
	for _, cs := range concurrentSchedulers() {
		m, err := Run(Config{System: inst, Sched: cs, Users: 8, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", cs.Name(), err)
		}
		if m.Committed != 16 {
			t.Fatalf("%s committed %d of 16 (aborts=%d breaks=%d)", cs.Name(), m.Committed, m.Aborts, m.DeadlockBreaks)
		}
	}
}

// TestShardedDispatchDeadlockProne: the cross pattern under detection-based
// 2PL exercises the global waits-for view and the breaker across shards.
func TestShardedDispatchDeadlockProne(t *testing.T) {
	inst := Instantiate(workload.Cross(), 10)
	for seed := int64(1); seed <= 5; seed++ {
		m, err := Run(Config{
			System:   inst,
			Sched:    online.NewConcurrentStrict2PL(lockmgr.Detect, 4),
			Users:    5,
			Seed:     seed,
			ExecTime: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 10 {
			t.Fatalf("seed %d: committed %d of 10", seed, m.Committed)
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestShardedDispatchLowContention: disjoint working sets across many
// shards — the scalability sweet spot — must commit without a single abort
// under lock-based scheduling.
func TestShardedDispatchLowContention(t *testing.T) {
	sys := &core.System{Name: "disjoint"}
	for i := 0; i < 16; i++ {
		v := core.Var(fmt.Sprintf("d%d", i))
		sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
			{Var: v, Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
			{Var: v, Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
		}})
	}
	sys.Normalize()
	m, err := Run(Config{System: sys, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 16), Users: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != 16 {
		t.Fatalf("committed %d of 16", m.Committed)
	}
	if m.Aborts != 0 || m.DeadlockBreaks != 0 {
		t.Errorf("disjoint workload saw aborts=%d breaks=%d", m.Aborts, m.DeadlockBreaks)
	}
}

// TestShardedDispatchMetrics: the Section 6 latency decomposition must
// survive the sharded runtime.
func TestShardedDispatchMetrics(t *testing.T) {
	inst := Instantiate(workload.Chain(), 6)
	m, err := Run(Config{System: inst, Sched: online.NewConcurrentStrict2PL(lockmgr.WoundWait, 4), Users: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.TxLatencyNs.N() < 6 {
		t.Errorf("latency samples = %d", m.TxLatencyNs.N())
	}
	if m.SchedNs.N()+m.WaitNs.N() == 0 {
		t.Error("no request samples")
	}
	if m.Throughput <= 0 || m.Elapsed <= 0 {
		t.Error("throughput/elapsed not computed")
	}
}
