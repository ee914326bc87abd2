package sim

// Coverage for stage sampling: both engines time the per-step stages of one
// transaction in samplePeriod per user and count the rest, while every
// transaction's latency and every parked request's wait keep a value. CI
// runs this file under -race -count=5: the central engine's users record
// into private histograms merged after they join.

import (
	"testing"
	"time"

	"optcc/internal/lockmgr"
	"optcc/internal/online"
	"optcc/internal/storage"
	"optcc/internal/workload"
)

// TestSamplerResidues: over a user's first 1,024 transactions the sampler
// times exactly one in samplePeriod, and the timed positions hit every
// residue mod 2, 4, 8 and 16 — so no template cycle of those lengths is
// timed on one template only.
func TestSamplerResidues(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		s := newSampler(seed)
		var hit [samplePeriod]bool
		timed := 0
		for k := 0; k < 1024; k++ {
			if s.next() {
				timed++
				hit[k%samplePeriod] = true
			}
		}
		if timed != 1024/samplePeriod {
			t.Fatalf("seed %d: %d of 1024 timed, want %d", seed, timed, 1024/samplePeriod)
		}
		for _, mod := range []int{2, 4, 8, 16} {
			for r := 0; r < mod; r++ {
				found := false
				for k := r; k < samplePeriod; k += mod {
					found = found || hit[k]
				}
				if !found {
					t.Fatalf("seed %d: no timed transaction at residue %d mod %d", seed, r, mod)
				}
			}
		}
	}
}

// sampledEngines pairs each engine with a strict-2PL scheduler for it: the
// central scheduler goroutine runs a plain Scheduler, the run-to-completion
// engine a ConcurrentScheduler.
var sampledEngines = []struct {
	name string
	mk   func(lockmgr.Policy) online.Scheduler
}{
	{"central", func(p lockmgr.Policy) online.Scheduler { return online.NewStrict2PL(p) }},
	{"sharded", func(p lockmgr.Policy) online.Scheduler { return online.NewConcurrentStrict2PL(p, 4) }},
}

// TestSampledStagesDisjoint: on a conflict-free run every request is
// counted in SchedNs and every applied step in ExecNs, every transaction's
// latency is timed, and about one transaction in samplePeriod has its
// stages timed.
func TestSampledStagesDisjoint(t *testing.T) {
	const jobs = 2048
	sys := Instantiate(workload.Disjoint(jobs, 3), jobs)
	for _, e := range sampledEngines {
		t.Run(e.name, func(t *testing.T) {
			m, err := Run(Config{System: sys, Sched: e.mk(lockmgr.Detect), Backend: storage.NewNoop(), Users: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if m.Committed != jobs || m.Aborts != 0 || m.WaitNs.N() != 0 {
				t.Fatalf("committed %d of %d, %d aborts, %d parked", m.Committed, jobs, m.Aborts, m.WaitNs.N())
			}
			steps := sys.StepCount()
			if m.SchedNs.N() != steps || m.ExecNs.N() != steps {
				t.Errorf("SchedNs.N = %d, ExecNs.N = %d, want %d", m.SchedNs.N(), m.ExecNs.N(), steps)
			}
			if m.TxLatencyNs.N() != jobs || m.TxLatencyNs.Timed() != jobs {
				t.Errorf("TxLatencyNs N = %d, timed %d, want %d", m.TxLatencyNs.N(), m.TxLatencyNs.Timed(), jobs)
			}
			// A timed transaction times all three of its steps.
			timedTxs := m.SchedNs.Timed() / 3
			if timedTxs < jobs/32 || timedTxs > jobs/8 || m.ExecNs.Timed() != m.SchedNs.Timed() {
				t.Errorf("%d timed transactions (exec samples %d, sched %d), want %d..%d",
					timedTxs, m.ExecNs.Timed(), m.SchedNs.Timed(), jobs/32, jobs/8)
			}
		})
	}
}

// TestSampledParkedWaitsTimed: on a contended strict-2PL run every parked
// request carries a wait, sampled transaction or not. Nearly every
// transaction queues behind h's lock (at least 63 parks of 64 transactions
// over 40 seeds on either engine), while at most one transaction per user
// is sampled here, so a
// park count below half the jobs means untimed parks went unrecorded.
func TestSampledParkedWaitsTimed(t *testing.T) {
	sys := Instantiate(workload.HotShard(), 64)
	for _, e := range sampledEngines {
		t.Run(e.name, func(t *testing.T) {
			// The ExecTime sleep holds each lock long enough that the
			// users queue behind it.
			m, err := Run(Config{System: sys, Sched: e.mk(lockmgr.WoundWait), Users: 8,
				ExecTime: 20 * time.Microsecond, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if m.Committed != sys.NumTxs() {
				t.Fatalf("committed %d of %d", m.Committed, sys.NumTxs())
			}
			if m.WaitNs.N() < sys.NumTxs()/2 {
				t.Fatalf("%d parked requests of %d transactions on one hot lock", m.WaitNs.N(), sys.NumTxs())
			}
			if m.WaitNs.Timed() != m.WaitNs.N() {
				t.Errorf("%d of %d parked requests timed", m.WaitNs.Timed(), m.WaitNs.N())
			}
			if m.TxLatencyNs.Timed() != sys.NumTxs() {
				t.Errorf("%d of %d latencies timed", m.TxLatencyNs.Timed(), sys.NumTxs())
			}
		})
	}
}
