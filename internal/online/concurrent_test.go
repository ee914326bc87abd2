package online

import (
	"fmt"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/schedule"
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
// path, escalation, and per-shard mutexes concurrently.
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
			}
			t.Errorf("tx %d never committed", tx)
		}(tx)
	}
	wg.Wait()
}
