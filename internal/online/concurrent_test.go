package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/schedule"
	"optcc/internal/txtab"
	"optcc/internal/workload"
)

// wrapperCases pairs each single-threaded scheduler with a factory, so a
// test can build an unwrapped twin next to the Mutexed one.
func wrapperCases() []struct {
	name    string
	factory func() Scheduler
} {
	return []struct {
		name    string
		factory func() Scheduler
	}{
		{"serial", func() Scheduler { return NewSerial() }},
		{"strict-2pl/detect", func() Scheduler { return NewStrict2PL(lockmgr.Detect) }},
		{"strict-2pl/nowait", func() Scheduler { return NewStrict2PL(lockmgr.NoWait) }},
		{"strict-2pl/waitdie", func() Scheduler { return NewStrict2PL(lockmgr.WaitDie) }},
		{"strict-2pl/woundwait", func() Scheduler { return NewStrict2PL(lockmgr.WoundWait) }},
		{"conservative-2pl", func() Scheduler { return NewConservative2PL() }},
		{"sgt/delay", func() Scheduler { return NewSGT() }},
		{"sgt/abort", func() Scheduler { return NewSGTAborting() }},
		{"to/basic", func() Scheduler { return NewTO() }},
		{"to/thomas", func() Scheduler { return NewTOThomas() }},
		{"occ", func() Scheduler { return NewOCC() }},
	}
}

// singleShardSystems are systems whose variables all hash to one shard for
// any shard count (single-variable systems): the hot-variable end of the
// native schedulers' decision-equivalence enumerations.
func singleShardSystems() []*core.System {
	hotspot := (&core.System{
		Name: "hotspot3",
		Txs: []core.Transaction{
			{Steps: []core.Step{{Var: "h", Kind: core.Update}, {Var: "h", Kind: core.Update}}},
			{Steps: []core.Step{{Var: "h", Kind: core.Read}, {Var: "h", Kind: core.Write}}},
			{Steps: []core.Step{{Var: "h", Kind: core.Update}}},
		},
	}).Normalize()
	return []*core.System{workload.Figure1(), workload.LostUpdate(), hotspot}
}

// TestMutexedReplayEquivalence: the mutexed baseline is transparent on any
// system (one shard, one mutex, the inner scheduler's decisions verbatim).
func TestMutexedReplayEquivalence(t *testing.T) {
	for _, sys := range []*core.System{workload.Cross(), workload.Chain(), workload.Banking()} {
		for _, tc := range wrapperCases() {
			base := tc.factory()
			wrapped := NewMutexed(tc.factory())
			schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
				bres, berr := Replay(sys, base, h, 0)
				wres, werr := Replay(sys, wrapped, h, 0)
				if (berr == nil) != (werr == nil) {
					t.Fatalf("%s on %s: completion mismatch on %v", tc.name, sys.Name, h)
				}
				if berr == nil && bres.Undelayed != wres.Undelayed {
					t.Fatalf("%s on %s: fixpoint mismatch on %v", tc.name, sys.Name, h)
				}
				return true
			})
		}
	}
}

// TestConcurrent2PLReplayEquivalence: the natively sharded strict 2PL
// realizes the same fixpoint as the monolithic Strict2PL — for any shard
// count, on any system, because partitioned 2PL decides every conflict at
// the single shard owning its variable.
func TestConcurrent2PLReplayEquivalence(t *testing.T) {
	for _, sys := range []*core.System{workload.Cross(), workload.Chain(), workload.Figure1(), workload.Banking()} {
		for _, policy := range []lockmgr.Policy{lockmgr.Detect, lockmgr.NoWait, lockmgr.WaitDie, lockmgr.WoundWait} {
			for _, shards := range []int{1, 4} {
				base := NewStrict2PL(policy)
				conc := NewConcurrentStrict2PL(policy, shards)
				schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
					bres, berr := Replay(sys, base, h, 0)
					cres, cerr := Replay(sys, conc, h, 0)
					if (berr == nil) != (cerr == nil) {
						t.Fatalf("%v/%d shards on %s: completion mismatch on %v: %v vs %v",
							policy, shards, sys.Name, h, berr, cerr)
					}
					if berr == nil && bres.Undelayed != cres.Undelayed {
						t.Fatalf("%v/%d shards on %s: fixpoint mismatch on %v: base %v, sharded %v",
							policy, shards, sys.Name, h, bres.Undelayed, cres.Undelayed)
					}
					return true
				})
			}
		}
	}
}

// TestConcurrent2PLReBeginMatchesFresh: re-beginning over the same system
// resets the lock table in place, and the reset table decides every
// history exactly as a freshly built one: same output, delays and aborts.
// Replay re-begins the reused scheduler once per history, after histories
// that left variables escalated and transactions wounded.
func TestConcurrent2PLReBeginMatchesFresh(t *testing.T) {
	for _, sys := range []*core.System{workload.Cross(), workload.Banking()} {
		for _, policy := range []lockmgr.Policy{lockmgr.Detect, lockmgr.WaitDie, lockmgr.WoundWait} {
			reused := NewConcurrentStrict2PL(policy, 4)
			reused.Begin(sys)
			table := reused.table
			schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
				got, gerr := Replay(sys, reused, h, 0)
				want, werr := Replay(sys, NewConcurrentStrict2PL(policy, 4), h, 0)
				if reused.table != table {
					t.Fatalf("%v on %s: Begin over the same system rebuilt the lock table", policy, sys.Name)
				}
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%v on %s: completion mismatch on %v: %v vs %v", policy, sys.Name, h, gerr, werr)
				}
				if gerr == nil && (!slices.Equal(got.Output, want.Output) || got.Delays != want.Delays || got.Aborts != want.Aborts) {
					t.Fatalf("%v on %s, history %v: re-begun table decided %v (%d delays, %d aborts), fresh %v (%d, %d)",
						policy, sys.Name, h, got.Output, got.Delays, got.Aborts, want.Output, want.Delays, want.Aborts)
				}
				return true
			})
			if reused.Begin(workload.Chain()); reused.table == table {
				t.Fatalf("%v: Begin over another system kept the old lock table", policy)
			}
		}
	}
}

// reBeginSystems returns two systems of one format whose steps number
// their variables differently, so a scheduler that kept one system's
// variable numbers (VarIDs) while deciding the other's steps would find
// the wrong entries, or none.
func reBeginSystems() (a, b *core.System) {
	inc := func(l []core.Value) core.Value { return l[len(l)-1] + 1 }
	tx := func(steps ...core.Step) core.Transaction { return core.Transaction{Steps: steps} }
	r := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Read} }
	w := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Write, Fn: inc} }
	u := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Update, Fn: inc} }
	// A's first two transactions touch one variable each; B's cross on p
	// and q, so its history T11 T21 T12 T22 is not serializable. Read
	// through the other system's numbers, each looks like the other.
	a = (&core.System{Name: "A", Txs: []core.Transaction{
		tx(u("x"), r("x")), tx(w("y"), u("y")), tx(r("z"), u("x"))}}).Normalize()
	b = (&core.System{Name: "B", Txs: []core.Transaction{
		tx(u("p"), u("q")), tx(u("q"), w("p")), tx(r("r"), w("r"))}}).Normalize()
	return a, b
}

// TestNativeReBeginABAMatchesFresh re-begins each native scheduler over
// systems A, B, A — every history of each, so Begin also reuses its tables
// within a system — and requires every history to be decided exactly as a
// fresh scheduler decides it. A scheduler that kept A's variable numbers
// or tables into B (or B's back into A) fails it.
func TestNativeReBeginABAMatchesFresh(t *testing.T) {
	a, b := reBeginSystems()
	for _, c := range nativeCases() {
		t.Run(c.name, func(t *testing.T) {
			reused := c.factory()
			for _, sys := range []*core.System{a, b, a} {
				schedule.Enumerate(sys.Format(), func(h core.Schedule) bool {
					got, gerr := Replay(sys, reused, h, 0)
					want, werr := Replay(sys, c.factory(), h, 0)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: completion mismatch on %v: %v vs %v", sys.Name, h, gerr, werr)
					}
					if gerr == nil && (!slices.Equal(got.Output, want.Output) || got.Delays != want.Delays || got.Aborts != want.Aborts) {
						t.Fatalf("%s, history %v: re-begun scheduler decided %v (%d delays, %d aborts), fresh %v (%d, %d)",
							sys.Name, h, got.Output, got.Delays, got.Aborts, want.Output, want.Delays, want.Aborts)
					}
					return !t.Failed()
				})
			}
		})
	}
}

// TestShardedRoutingAndNames covers the partition plumbing of the two ends
// of the ConcurrentScheduler contract: a natively sharded scheduler spreads
// variables over its shards, Mutexed is one shard.
func TestShardedRoutingAndNames(t *testing.T) {
	s := NewConcurrentStrict2PL(lockmgr.WoundWait, 8)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if got := s.Name(); got != "2pl-sharded(8)/wound-wait" {
		t.Fatalf("Name = %q", got)
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		sh := s.ShardOf(core.Var(fmt.Sprintf("v%d", i)))
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardOf out of range: %d", sh)
		}
		seen[sh] = true
	}
	if len(seen) < 4 {
		t.Errorf("hash partition badly skewed: only %d of 8 shards used", len(seen))
	}
	m := NewMutexed(NewOCC())
	if m.NumShards() != 1 || m.ShardOf("anything") != 0 {
		t.Error("mutexed must be a single shard")
	}
	if m.Name() != "mutexed/occ/backward" {
		t.Errorf("Name = %q", m.Name())
	}
}

// TestConcurrent2PLParallelDrive hammers ConcurrentStrict2PL from one
// goroutine per transaction with the no-wait policy (conflicts abort the
// requester, so per-transaction call sequencing is preserved without a
// harness). Run under -race this exercises the sharded lock table's fast
// path, escalation, and per-shard mutexes concurrently. Like the runtime,
// the driver backs off a random 0–50µs before restarting an aborted
// transaction: without it, no-wait Read→Write upgrades on the hot set can
// abort each other in lockstep until the attempt bound runs out.
func TestConcurrent2PLParallelDrive(t *testing.T) {
	const txs = 32
	sys := &core.System{Name: "hammer"}
	for i := 0; i < txs; i++ {
		// Half the transactions work a private variable (fast path), half
		// contend on a small hot set (escalation + queues).
		var steps []core.Step
		if i%2 == 0 {
			v := core.Var(fmt.Sprintf("priv%d", i))
			steps = []core.Step{{Var: v, Kind: core.Update}, {Var: v, Kind: core.Update}}
		} else {
			v := core.Var(fmt.Sprintf("hot%d", i%4))
			steps = []core.Step{{Var: v, Kind: core.Read}, {Var: v, Kind: core.Write}}
		}
		sys.Txs = append(sys.Txs, core.Transaction{Steps: steps})
	}
	sys.Normalize()

	sched := NewConcurrentStrict2PL(lockmgr.NoWait, 4)
	sched.Begin(sys)
	var wg sync.WaitGroup
	for tx := 0; tx < txs; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tx)))
			steps := len(sys.Txs[tx].Steps)
			for attempt := 0; attempt < 10_000; attempt++ {
				ok := true
				for idx := 0; idx < steps; idx++ {
					switch sched.Try(core.StepID{Tx: tx, Idx: idx}) {
					case Grant:
					case AbortTx, Delay: // no-wait never delays, but be safe
						ok = false
					}
					if !ok {
						break
					}
				}
				if ok {
					sched.Commit(tx)
					return
				}
				sched.Abort(tx)
				time.Sleep(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
			}
			t.Errorf("tx %d never committed", tx)
		}(tx)
	}
	wg.Wait()
}

// TestClocksAloneOnLine: every native's run-global clock, written by
// transactions on every processor, keeps a cache line of its own, away
// from the fields every Try reads.
func TestClocksAloneOnLine(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[ConcurrentTO](),
		reflect.TypeFor[ConcurrentMV](),
		reflect.TypeFor[ConcurrentOCC](),
	} {
		if err := txtab.AloneOnLine(typ, "clock"); err != nil {
			t.Error(err)
		}
	}
}
