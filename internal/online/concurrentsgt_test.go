package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/schedule"
	"optcc/internal/workload"
)

// TestConcurrentSGTDecisionEquivalence is the acceptance property of the
// natively concurrent SGT: under single-goroutine driving it must match
// the single-threaded SGT verbatim — the whole replay transcript (grant
// log, delays, aborts), history by history over the full enumeration, in
// both cycle modes and for any shard count. The full reader/writer mark
// lists reproduce exactly the sequential edge set, so every cycle
// decision, prune and victim choice is forced to agree.
func TestConcurrentSGTDecisionEquivalence(t *testing.T) {
	systems := append(singleShardSystems(),
		workload.Cross(), workload.Chain(), workload.Banking())
	for _, sys := range systems {
		for _, abort := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				mkBase := func() Scheduler {
					if abort {
						return NewSGTAborting()
					}
					return NewSGT()
				}
				mkNative := func() Scheduler {
					if abort {
						return NewConcurrentSGTAborting(shards)
					}
					return NewConcurrentSGT(shards)
				}
				base, native := mkBase(), mkNative()
				checked := 0
				schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
					bres, berr := Replay(sys, base, h, 0)
					nres, nerr := Replay(sys, native, h, 0)
					if (berr == nil) != (nerr == nil) {
						t.Fatalf("abort=%v shards=%d on %s: completion mismatch on %v: %v vs %v",
							abort, shards, sys.Name, h, berr, nerr)
					}
					if berr != nil {
						return true
					}
					if bres.Undelayed != nres.Undelayed || bres.Delays != nres.Delays ||
						bres.Aborts != nres.Aborts || !reflect.DeepEqual(bres.Output, nres.Output) {
						t.Fatalf("abort=%v shards=%d on %s: transcript mismatch on %v:\nbase   %+v\nnative %+v",
							abort, shards, sys.Name, h, bres, nres)
					}
					checked++
					return true
				})
				if checked == 0 {
					t.Fatalf("abort=%v shards=%d on %s: no histories compared", abort, shards, sys.Name)
				}
			}
		}
	}
}

// TestConcurrentSGTContract covers naming, partition plumbing, and the
// cycle → abort → restart discipline on the lost-update anomaly.
func TestConcurrentSGTContract(t *testing.T) {
	s := NewConcurrentSGTAborting(8)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Name() != "csgt(8)/abort" {
		t.Fatalf("Name = %q", s.Name())
	}
	if NewConcurrentSGT(2).Name() != "csgt(2)/delay" {
		t.Fatal("delay name wrong")
	}
	sys := workload.LostUpdate()
	s.Begin(sys)
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("tx0 read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 1, Idx: 0}); d != Grant {
		t.Fatalf("tx1 read: %v", d)
	}
	// Tx 1's write edges tx0→tx1; tx 0's write would close the cycle.
	if d := s.Try(core.StepID{Tx: 1, Idx: 1}); d != Grant {
		t.Fatalf("tx1 write: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != AbortTx {
		t.Fatalf("cycle-closing write: %v", d)
	}
	s.Abort(0)
	s.Commit(1)
	// The fresh incarnation sees only retired marks: clean run-through.
	if d := s.Try(core.StepID{Tx: 0, Idx: 0}); d != Grant {
		t.Fatalf("restarted read: %v", d)
	}
	if d := s.Try(core.StepID{Tx: 0, Idx: 1}); d != Grant {
		t.Fatalf("restarted write: %v", d)
	}
	s.Commit(0)
}

// TestConcurrentSGTParallelDrive hammers the lock-free zero-conflict path
// from one goroutine per transaction on disjoint variables (the
// contract-legal concurrency: no two in-flight steps share a variable).
// Under -race this exercises the liveness atomics, the marks tables, and
// the graph's commit path concurrently; every transaction must commit
// first try.
func TestConcurrentSGTParallelDrive(t *testing.T) {
	const txs = 32
	sys := &core.System{Name: "csgt-hammer"}
	for i := 0; i < txs; i++ {
		v := core.Var(fmt.Sprintf("priv%d", i))
		sys.Txs = append(sys.Txs, core.Transaction{Steps: []core.Step{
			{Var: v, Kind: core.Read}, {Var: v, Kind: core.Write}, {Var: v, Kind: core.Update},
		}})
	}
	sys.Normalize()
	sched := NewConcurrentSGTAborting(4)
	sched.Begin(sys)
	var wg sync.WaitGroup
	for tx := 0; tx < txs; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			for idx := 0; idx < len(sys.Txs[tx].Steps); idx++ {
				if d := sched.Try(core.StepID{Tx: tx, Idx: idx}); d != Grant {
					t.Errorf("tx %d step %d: %v", tx, idx, d)
					return
				}
			}
			sched.Commit(tx)
		}(tx)
	}
	wg.Wait()
}

// TestConcurrentSGTReplaySerializable re-runs the CSR acceptance property
// on contended random histories through the replay harness, both cycle
// modes, across shard counts — one latch shard (1), fewer shards than
// variables and more shards than variables: whatever the graph completes
// must be conflict-serializable. The CI stress job repeats this under
// -race.
func TestConcurrentSGTReplaySerializable(t *testing.T) {
	systems := []*core.System{workload.Cross(), workload.Banking(), workload.CrossPairs(3)}
	for _, abort := range []bool{false, true} {
		for _, shards := range []int{1, 4, 16} {
			var sched Scheduler = NewConcurrentSGT(shards)
			if abort {
				sched = NewConcurrentSGTAborting(shards)
			}
			for _, sys := range systems {
				rng := rand.New(rand.NewSource(int64(shards) * 977))
				completed := 0
				for trial := 0; trial < 12; trial++ {
					h := schedule.Random(sys.Format(), rng)
					res, err := Replay(sys, sched, h, 50)
					if err != nil {
						continue // abort storms may blow the restart budget; CSR is the property
					}
					completed++
					final := res.FinalSchedule(sys)
					csr, _, err := conflict.Serializable(sys, final)
					if err != nil {
						t.Fatal(err)
					}
					if !csr {
						t.Fatalf("abort=%v shards=%d on %s: non-serializable final schedule %v from %v",
							abort, shards, sys.Name, final, h)
					}
				}
				if completed == 0 {
					t.Fatalf("abort=%v shards=%d on %s: no trial completed", abort, shards, sys.Name)
				}
			}
		}
	}
}

// sgtCall is one recorded scheduler call: a Try with the decision it got,
// or a Commit or Abort (decision unused).
type sgtCall struct {
	op byte // 't', 'c' or 'a'
	id core.StepID
	d  Decision
}

// sgtCallRecorder passes every call through to the scheduler it wraps and
// records the state-changing ones.
type sgtCallRecorder struct {
	Scheduler
	calls []sgtCall
}

func (r *sgtCallRecorder) Try(id core.StepID) Decision {
	d := r.Scheduler.Try(id)
	r.calls = append(r.calls, sgtCall{op: 't', id: id, d: d})
	return d
}

func (r *sgtCallRecorder) Commit(tx int) {
	r.Scheduler.Commit(tx)
	r.calls = append(r.calls, sgtCall{op: 'c', id: core.StepID{Tx: tx}})
}

func (r *sgtCallRecorder) Abort(tx int) {
	r.Scheduler.Abort(tx)
	r.calls = append(r.calls, sgtCall{op: 'a', id: core.StepID{Tx: tx}})
}

// TestConcurrentSGTContendedAllocs holds ConcurrentSGT's contended path —
// inserts with sources, cycle checks, commit and abort cascades — to zero
// allocations once warm. It records the calls Replay makes on random
// Banking histories, then plays them straight into the re-begun scheduler
// from one goroutine, checking every decision.
func TestConcurrentSGTContendedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	sys := workload.Banking()
	sched := NewConcurrentSGTAborting(4)
	rec := &sgtCallRecorder{Scheduler: sched}
	rng := rand.New(rand.NewSource(1))
	var traces [][]sgtCall
	cycles := 0
	for len(traces) < 32 {
		rec.calls = nil
		if _, err := Replay(sys, rec, schedule.Random(sys.Format(), rng), 0); err != nil {
			continue
		}
		for _, c := range rec.calls {
			if c.d == AbortTx {
				cycles++
			}
		}
		traces = append(traces, rec.calls)
	}
	if cycles == 0 {
		t.Fatal("no trace closed a cycle: the contended path is unexercised")
	}
	play := func() {
		for _, calls := range traces {
			sched.Begin(sys)
			for _, c := range calls {
				switch c.op {
				case 't':
					if d := sched.Try(c.id); d != c.d {
						t.Fatalf("replayed Try(%v) = %v, recorded %v", c.id, d, c.d)
					}
				case 'c':
					sched.Commit(c.id.Tx)
				case 'a':
					sched.Abort(c.id.Tx)
				}
			}
		}
	}
	play()
	if allocs := testing.AllocsPerRun(20, play); allocs != 0 {
		t.Fatalf("contended Try/Commit/Abort over %d traces (%d cycles): %v allocs per pass, want 0", len(traces), cycles, allocs)
	}
}
