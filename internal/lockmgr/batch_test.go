package lockmgr

// Coverage for ShardedTable.AcquireBatchInto: result-for-result equivalence
// with sequential Acquire on a twin table, across fast-path grants,
// reentrant holds, conflicts, and every deadlock policy.

import (
	"fmt"
	"testing"

	"optcc/internal/core"
)

// TestAcquireBatchMatchesSequential drives a deterministic request script
// through AcquireBatchInto on one table and Acquire on a twin, and requires
// identical statuses and wound sets at every step.
func TestAcquireBatchMatchesSequential(t *testing.T) {
	vars := []core.Var{"a", "b", "c", "d", "e"}
	script := func(round int) []BatchReq {
		var reqs []BatchReq
		for tx := TxID(0); tx < 4; tx++ {
			// tx/2 makes transaction pairs collide on one variable within a
			// round, so batches exercise same-variable ordering too.
			v := vars[(int(tx)/2+round)%len(vars)]
			mode := Exclusive
			if (int(tx)+round)%3 == 0 {
				mode = Shared
			}
			reqs = append(reqs, BatchReq{Tx: tx, Var: v, Mode: mode})
		}
		return reqs
	}
	for _, policy := range []Policy{Detect, NoWait, WaitDie, WoundWait} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/%dshards", policy, shards), func(t *testing.T) {
				batched := NewShardedTable(policy, shards)
				sequential := NewShardedTable(policy, shards)
				for tx := TxID(0); tx < 4; tx++ {
					batched.Register(tx)
					sequential.Register(tx)
				}
				for round := 0; round < 6; round++ {
					reqs := script(round)
					got := batched.AcquireBatchInto(nil, reqs)
					for i, r := range reqs {
						want := sequential.Acquire(r.Tx, r.Var, r.Mode)
						if got[i].Status != want.Status {
							t.Fatalf("round %d req %d (%+v): batch %v, sequential %v",
								round, i, r, got[i].Status, want.Status)
						}
						if len(got[i].Wounded) != len(want.Wounded) {
							t.Fatalf("round %d req %d: wounded %v vs %v",
								round, i, got[i].Wounded, want.Wounded)
						}
					}
				}
				if err := batched.Invariant(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAcquireBatchSameVariableOrder: two requests on the SAME fast-regime
// variable in one batch must resolve exactly as sequential Acquire calls —
// in particular, a later fast-path-eligible Exclusive request must not be
// CAS-granted ahead of an earlier conflicting Shared request (which would
// invert who waits, wounds, or aborts).
func TestAcquireBatchSameVariableOrder(t *testing.T) {
	for _, policy := range []Policy{Detect, NoWait, WaitDie, WoundWait} {
		for _, order := range [][]BatchReq{
			{{Tx: 0, Var: "v", Mode: Shared}, {Tx: 1, Var: "v", Mode: Exclusive}},
			{{Tx: 0, Var: "v", Mode: Exclusive}, {Tx: 1, Var: "v", Mode: Shared}},
			{{Tx: 0, Var: "v", Mode: Exclusive}, {Tx: 1, Var: "v", Mode: Exclusive}},
			{{Tx: 1, Var: "v", Mode: Shared}, {Tx: 0, Var: "v", Mode: Exclusive}},
		} {
			batched := NewShardedTable(policy, 4)
			sequential := NewShardedTable(policy, 4)
			for tx := TxID(0); tx < 2; tx++ {
				batched.Register(tx)
				sequential.Register(tx)
			}
			got := batched.AcquireBatchInto(nil, order)
			for i, r := range order {
				want := sequential.Acquire(r.Tx, r.Var, r.Mode)
				if got[i].Status != want.Status || len(got[i].Wounded) != len(want.Wounded) {
					t.Fatalf("%v order %v req %d: batch (%v, wounded %v) != sequential (%v, wounded %v)",
						policy, order, i, got[i].Status, got[i].Wounded, want.Status, want.Wounded)
				}
			}
			if err := batched.Invariant(); err != nil {
				t.Fatalf("%v order %v: %v", policy, order, err)
			}
		}
	}
}

// TestAcquireBatchFastPathAndReentrant: uncontended exclusive batch
// requests must grant without escalating out of the fast regime, and a
// reentrant request in a later batch stays a fast grant in any mode.
func TestAcquireBatchFastPathAndReentrant(t *testing.T) {
	s := NewShardedTable(WoundWait, 4)
	s.Register(1)
	first := s.AcquireBatchInto(nil, []BatchReq{
		{Tx: 1, Var: "x", Mode: Exclusive},
		{Tx: 1, Var: "y", Mode: Exclusive},
	})
	for i, r := range first {
		if r.Status != Granted {
			t.Fatalf("req %d: %v", i, r.Status)
		}
	}
	// Uncontended: no waiters, still in the fast regime.
	if s.QueueLen("x") != 0 || s.QueueLen("y") != 0 {
		t.Fatal("fast-path grant escalated")
	}
	again := s.AcquireBatchInto(nil, []BatchReq{
		{Tx: 1, Var: "x", Mode: Exclusive}, // reentrant X on fast X
		{Tx: 1, Var: "y", Mode: Shared},    // S on fast X hold: covered
	})
	for i, r := range again {
		if r.Status != Granted {
			t.Fatalf("reentrant req %d: %v", i, r.Status)
		}
	}
	if s.QueueLen("y") != 0 {
		t.Fatal("reentrant shared request escalated a fast-held variable")
	}
	// A conflicting batch from another transaction escalates and queues.
	s.Register(2)
	res := s.AcquireBatchInto(nil, []BatchReq{{Tx: 2, Var: "x", Mode: Exclusive}})
	if res[0].Status != Waiting {
		t.Fatalf("conflicting request: %v", res[0].Status)
	}
	if got := s.ReleaseAll(1); len(got) == 0 {
		t.Fatal("release granted nothing to the waiter")
	}
	if m, ok := s.HeldBy("x")[2]; !ok || m != Exclusive {
		t.Fatal("waiter not promoted to holder")
	}
	if err := s.Invariant(); err != nil {
		t.Fatal(err)
	}
}
