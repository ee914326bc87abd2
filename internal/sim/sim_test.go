package sim

import (
	"testing"
	"time"

	"optcc/internal/check"
	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/workload"
)

func schedulers() []online.Scheduler {
	return []online.Scheduler{
		online.NewSerial(),
		online.NewStrict2PL(lockmgr.Detect),
		online.NewStrict2PL(lockmgr.NoWait),
		online.NewStrict2PL(lockmgr.WaitDie),
		online.NewStrict2PL(lockmgr.WoundWait),
		online.NewConservative2PL(),
		online.NewSGTAborting(),
		online.NewTO(),
		online.NewTOThomas(),
		online.NewOCC(),
	}
}

func TestInstantiate(t *testing.T) {
	inst := Instantiate(workload.Cross(), 5)
	if inst.NumTxs() != 5 {
		t.Fatalf("instances = %d", inst.NumTxs())
	}
	if inst.Txs[0].Name != "T1#0" || inst.Txs[1].Name != "T2#1" || inst.Txs[2].Name != "T1#2" {
		t.Errorf("instance names: %v %v %v", inst.Txs[0].Name, inst.Txs[1].Name, inst.Txs[2].Name)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every scheduler must drive every job to commit under contention, and the
// final output must be a legal, conflict-serializable schedule of the
// instance system.
func TestAllSchedulersCompleteUnderContention(t *testing.T) {
	inst := Instantiate(workload.Cross(), 8)
	for _, sched := range schedulers() {
		const seed = 42
		m, err := Run(Config{
			System: inst,
			Sched:  sched,
			Users:  4,
			Seed:   seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if m.Committed != 8 {
			t.Fatalf("%s committed %d of 8 (aborts=%d)", sched.Name(), m.Committed, m.Aborts)
		}
		if !m.Output.Legal(inst.Format()) {
			t.Fatalf("%s output illegal: %v", sched.Name(), m.Output)
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Errorf("%s seed %d: %v", sched.Name(), seed, err)
		}
	}
}

func TestHighContentionHotspot(t *testing.T) {
	// Many transactions all updating one variable: heavy conflicts, every
	// scheduler must still finish with a serializable log.
	hot := (&core.System{
		Name: "hotspot",
		Txs: []core.Transaction{
			{Steps: []core.Step{
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
				{Var: "h", Kind: core.Update, Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }},
			}},
		},
	}).Normalize()
	inst := Instantiate(hot, 12)
	for _, sched := range schedulers() {
		m, err := Run(Config{System: inst, Sched: sched, Users: 6, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if m.Committed != 12 {
			t.Fatalf("%s committed %d of 12", sched.Name(), m.Committed)
		}
	}
}

// TestDeadlockBreaking drives one crossed pair, T1 W(a) W(b) against
// T2 W(b) W(a), with an ExecTime long enough that each holds its first
// lock when it asks for its second: under strict 2PL with detection both
// park, and the run ends only if the breaker sees that and aborts one. On
// both engines the breaker must fire and both transactions commit; a
// breaker whose precondition never holds fails the run's deadline here
// instead of hanging the package.
func TestDeadlockBreaking(t *testing.T) {
	w := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Write} }
	crossed := (&core.System{Name: "crossed", Txs: []core.Transaction{
		{Name: "T1", Steps: []core.Step{w("a"), w("b")}},
		{Name: "T2", Steps: []core.Step{w("b"), w("a")}},
	}}).Normalize()
	for _, c := range []struct {
		name  string
		sched online.Scheduler
	}{
		{"central", online.NewStrict2PL(lockmgr.Detect)},
		{"latch", online.NewMutexed(online.NewStrict2PL(lockmgr.Detect))},
	} {
		t.Run(c.name, func(t *testing.T) {
			type result struct {
				m   *Metrics
				err error
			}
			done := make(chan result, 1)
			go func() {
				m, err := Run(Config{System: crossed, Sched: c.sched, Users: 2, Seed: 1, ExecTime: 20 * time.Millisecond})
				done <- result{m, err}
			}()
			var r result
			select {
			case r = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the crossed pair did not finish in 10 s: its deadlock was never broken")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.m.DeadlockBreaks < 1 {
				t.Errorf("deadlock breaks = %d, want at least 1 (aborts %d)", r.m.DeadlockBreaks, r.m.Aborts)
			}
			if r.m.Committed != 2 {
				t.Errorf("committed %d of 2", r.m.Committed)
			}
		})
	}
}

func TestMetricsPopulated(t *testing.T) {
	inst := Instantiate(workload.Chain(), 6)
	m, err := Run(Config{System: inst, Sched: online.NewSGTAborting(), Users: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.TxLatencyNs.N() < 6 {
		t.Errorf("latency samples = %d", m.TxLatencyNs.N())
	}
	if m.SchedNs.N()+m.WaitNs.N() == 0 {
		t.Error("no request samples")
	}
	if m.Throughput <= 0 {
		t.Error("throughput not computed")
	}
	if m.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Sched: online.NewSerial()}); err == nil {
		t.Error("nil system accepted")
	}
	bad := &core.System{Name: "bad", Txs: []core.Transaction{{}}}
	if _, err := Run(Config{System: bad, Sched: online.NewSerial()}); err == nil {
		t.Error("invalid system accepted")
	}
}

// The serial scheduler serializes everything: its output must be a serial
// schedule of the instance system.
func TestSerialSchedulerProducesSerialOutput(t *testing.T) {
	inst := Instantiate(workload.Cross(), 6)
	m, err := Run(Config{System: inst, Sched: online.NewSerial(), Users: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != 6 {
		t.Fatalf("committed %d of 6", m.Committed)
	}
	if !m.Output.IsSerial() {
		t.Errorf("serial scheduler emitted interleaved output %v", m.Output)
	}
}

// Single user: no contention, no waiting, no aborts for lock-based
// schedulers.
func TestSingleUserNoContention(t *testing.T) {
	inst := Instantiate(workload.Cross(), 4)
	m, err := Run(Config{System: inst, Sched: online.NewStrict2PL(lockmgr.Detect), Users: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborts != 0 || m.DeadlockBreaks != 0 {
		t.Errorf("single user saw aborts=%d deadlocks=%d", m.Aborts, m.DeadlockBreaks)
	}
	if m.WaitNs.N() != 0 {
		t.Errorf("single user waited %d times", m.WaitNs.N())
	}
	if m.Committed != 4 {
		t.Errorf("committed %d of 4", m.Committed)
	}
}

func TestBankingWorkloadUnderSimulation(t *testing.T) {
	inst := Instantiate(workload.Banking(), 9)
	for _, sched := range []online.Scheduler{online.NewStrict2PL(lockmgr.WoundWait), online.NewSGTAborting()} {
		const seed = 5
		m, err := Run(Config{System: inst, Sched: sched, Users: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if m.Committed != 9 {
			t.Fatalf("%s committed %d of 9", sched.Name(), m.Committed)
		}
		if err := check.CSR(inst, m.Output); err != nil {
			t.Errorf("%s seed %d: banking: %v", sched.Name(), seed, err)
		}
	}
}
