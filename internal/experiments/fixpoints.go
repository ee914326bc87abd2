// Offline fixpoint counting (E1–E3, E5, E6): the sets of histories each
// information level, online scheduler or locking policy passes, counted
// exhaustively over small systems.

package experiments

import (
	"fmt"
	"time"

	"optcc/internal/core"
	"optcc/internal/fixpoint"
	"optcc/internal/locking"
	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/schedule"
	"optcc/internal/sim"
	"optcc/internal/workload"
)

// E1FixpointHierarchy computes the full hierarchy on the canonical
// systems.
func E1FixpointHierarchy() (*Result, error) {
	res := &Result{ID: "E1", Title: "Fixpoint hierarchy serial ⊆ CSR ⊆ SR ⊆ WSR ⊆ C(T) ⊆ H"}
	cases := []struct {
		sys  *core.System
		opts fixpoint.Options
	}{
		{workload.Figure1(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Theorem2Adversary(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Chain(), fixpoint.Options{WithWSR: true, WithCorrect: true}},
		{workload.Banking(), fixpoint.Options{WithCorrect: true}},
		{workload.Random(workload.RandomConfig{NumTxs: 3, MaxSteps: 2, NumVars: 2}, 1979), fixpoint.Options{WithWSR: true, WithCorrect: true}},
	}
	for _, c := range cases {
		counts, err := fixpoint.Classify(c.sys, c.opts)
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, counts.Table())
	}
	return res, nil
}

// E2NoDelayProbability reports the Section 6 quantity |P|/|H| for each
// fixpoint class on the banking system: the probability a uniformly random
// request history is passed undelayed by the optimal scheduler of each
// class.
func E2NoDelayProbability() (*Result, error) {
	sys := workload.Banking()
	counts, err := fixpoint.Classify(sys, fixpoint.Options{WithCorrect: true})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("no-delay probability |P|/|H| — banking (|H| = 1260)",
		"scheduler (optimal for)", "|P|", "|P|/|H|")
	t.AddRow("serial (minimum info)", counts.Serial, report.Ratio(counts.Serial, counts.Total))
	t.AddRow("CSR certifier", counts.CSR, report.Ratio(counts.CSR, counts.Total))
	t.AddRow("serialization (syntactic info)", counts.SR, report.Ratio(counts.SR, counts.Total))
	t.AddRow("maximum information", counts.Correct, report.Ratio(counts.Correct, counts.Total))
	return &Result{ID: "E2", Title: "Section 6 — probability that no step waits", Tables: []*report.Table{t}}, nil
}

// E3OnlineFixpoints measures the realized fixpoint of each online
// scheduler against the theoretical classes.
func E3OnlineFixpoints() (*Result, error) {
	res := &Result{ID: "E3", Title: "Realized fixpoints of online schedulers vs theory"}
	for _, sys := range []*core.System{workload.Chain(), workload.LostUpdate(), workload.Cross()} {
		tbl, counts, err := fixpoint.OnlineCounts(sys, []online.Scheduler{
			online.NewSerial(),
			online.NewConservative2PL(),
			online.NewStrict2PL(lockmgr.Detect),
			online.NewSGT(),
			online.NewTO(),
			online.NewTOThomas(),
			online.NewOCC(),
		}, 0)
		if err != nil {
			return nil, err
		}
		if counts["serial"] > counts["strict-2pl/detect"] || counts["strict-2pl/detect"] > counts["sgt/delay"] {
			return nil, fmt.Errorf("E3: hierarchy violated on %s: %v", sys.Name, counts)
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res, nil
}

// E5PolicyComparison compares locking policies by the size of their
// achievable output sets (Section 5.2's performance measure) on the
// systems where the paper's separations appear.
func E5PolicyComparison() (*Result, error) {
	mk := func(vars ...core.Var) core.Transaction {
		steps := make([]core.Step, len(vars))
		for i, v := range vars {
			steps[i] = core.Step{Var: v, Kind: core.Update}
		}
		return core.Transaction{Steps: steps}
	}
	cases := []struct {
		name string
		sys  *core.System
	}{
		{"prime-gap (T1=x,y T2=x T3=y)", (&core.System{Txs: []core.Transaction{mk("x", "y"), mk("x"), mk("y")}}).Normalize()},
		{"private-var (T1=y,x,p T2=y)", (&core.System{Txs: []core.Transaction{mk("y", "x", "p"), mk("y")}}).Normalize()},
		{"cross", syntaxOf(workload.Cross())},
	}
	res := &Result{ID: "E5", Title: "Section 5.4 — 2PL vs 2PL′ vs selective 2PL (achievable output sets)"}
	for _, c := range cases {
		total := 0
		schedule.Enumerate(c.sys.Format(), func(core.Schedule) bool { total++; return true })
		t := report.NewTable(fmt.Sprintf("%s (|H| = %d)", c.name, total),
			"policy", "separable", "|outputs|", "share of H")
		for _, p := range []locking.Policy{locking.TwoPhase{}, locking.TwoPhasePrime{X: "x"}, locking.Selective2PL{}} {
			ls, err := p.Transform(c.sys)
			if err != nil {
				return nil, err
			}
			outs, err := locking.Outputs(ls)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name(), p.Separable(), len(outs), report.Ratio(len(outs), total))
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E6TreeLocking compares tree locking with strict 2PL on hierarchical
// path workloads, both by realized fixpoint and by simulated waiting.
func E6TreeLocking() (*Result, error) {
	res := &Result{ID: "E6", Title: "Section 5.5 — structured data: tree locking vs 2PL"}
	// Fixpoint comparison on a small two-path system.
	mk := func(path ...core.Var) core.Transaction {
		steps := make([]core.Step, len(path))
		for i, v := range path {
			steps[i] = core.Step{Var: v, Kind: core.Update,
				Fn: func(l []core.Value) core.Value { return l[len(l)-1] + 1 }}
		}
		return core.Transaction{Steps: steps}
	}
	small := (&core.System{
		Name: "two-paths",
		Txs:  []core.Transaction{mk("n0", "n1", "n3"), mk("n0", "n2", "n6")},
	}).Normalize()
	tbl, counts, err := fixpoint.OnlineCounts(small, []online.Scheduler{
		online.NewStrict2PL(lockmgr.Detect),
		online.NewTreeLock(),
	}, 0)
	if err != nil {
		return nil, err
	}
	if counts["tree-lock"] <= counts["strict-2pl/detect"] {
		return nil, fmt.Errorf("E6: tree lock (%d) should beat strict 2PL (%d) on paths", counts["tree-lock"], counts["strict-2pl/detect"])
	}
	res.Tables = append(res.Tables, tbl)
	// Simulation on a deeper tree.
	inst := sim.Instantiate(workload.PathWorkload(4, 3, 7), 18)
	t := report.NewTable("tree depth 4, 18 jobs, 6 users",
		"scheduler", "committed", "aborts", "waits", "mean-wait-µs")
	for _, sched := range []online.Scheduler{online.NewStrict2PL(lockmgr.WoundWait), online.NewTreeLock()} {
		m, err := sim.Run(sim.Config{System: inst, Sched: sched, Users: 6, ExecTime: 100 * time.Microsecond, Seed: 55})
		if err != nil {
			return nil, err
		}
		t.AddRow(sched.Name(), m.Committed, m.Aborts, m.WaitNs.N(), m.WaitNs.Mean()/1e3)
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}
