// Engine cells (E4, E7): each runs the goroutine runtime once at a fixed
// scale and self-checks that every job commits. The tables keep counters
// and Section 6's waiting columns; throughput and latency numbers come
// from bench/, and the history oracle (internal/check) runs in the sim
// and storage tests, not here.

package experiments

import (
	"fmt"
	"time"

	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/sim"
	"optcc/internal/workload"
)

// E4SimulatedWaiting runs the goroutine simulator: waiting time per
// scheduler as concurrency rises on the banking workload, Section 6's delay
// measure.
func E4SimulatedWaiting() (*Result, error) {
	const jobs = 24
	res := &Result{ID: "E4", Title: "Section 6 — simulated waiting time vs fixpoint richness (goroutine runtime)"}
	template := workload.Banking()
	for _, users := range []int{2, 4, 8} {
		t := report.NewTable(fmt.Sprintf("banking, %d jobs, %d users", jobs, users),
			"scheduler", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "p95-wait-µs", "self-check")
		for _, sched := range []online.Scheduler{
			online.NewSerial(),
			online.NewStrict2PL(lockmgr.WoundWait),
			online.NewSGTAborting(),
			online.NewOCC(),
		} {
			m, err := sim.Run(sim.Config{
				System:   sim.Instantiate(template, jobs),
				Sched:    sched,
				Users:    users,
				ExecTime: 100 * time.Microsecond,
				Seed:     1979,
			})
			if err != nil {
				return nil, err
			}
			if m.Committed != jobs {
				return nil, fmt.Errorf("E4: %s committed %d of %d", sched.Name(), m.Committed, jobs)
			}
			t.AddRow(sched.Name(), m.Committed, m.Aborts, m.DeadlockBreaks,
				m.WaitNs.N(), m.WaitNs.Mean()/1e3, m.WaitNs.Percentile(95)/1e3, "all committed")
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E7DeadlockPolicies is the design-choice ablation: the four deadlock
// handling strategies under a deadlock-prone workload.
func E7DeadlockPolicies() (*Result, error) {
	const jobs = 16
	inst := sim.Instantiate(workload.Cross(), jobs)
	t := report.NewTable(fmt.Sprintf("deadlock handling ablation — cross workload, %d jobs, 8 users", jobs),
		"policy", "committed", "aborts", "deadlock-breaks", "waits", "mean-wait-µs", "self-check")
	for _, policy := range []lockmgr.Policy{lockmgr.Detect, lockmgr.NoWait, lockmgr.WaitDie, lockmgr.WoundWait} {
		m, err := sim.Run(sim.Config{
			System:   inst,
			Sched:    online.NewStrict2PL(policy),
			Users:    8,
			ExecTime: 50 * time.Microsecond,
			Seed:     2024,
		})
		if err != nil {
			return nil, err
		}
		if m.Committed != jobs {
			return nil, fmt.Errorf("E7: %v committed %d of %d", policy, m.Committed, jobs)
		}
		t.AddRow(policy.String(), m.Committed, m.Aborts, m.DeadlockBreaks, m.WaitNs.N(), m.WaitNs.Mean()/1e3, "all committed")
	}
	return &Result{ID: "E7", Title: "Ablation — deadlock handling under strict 2PL", Tables: []*report.Table{t}}, nil
}
