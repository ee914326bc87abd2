package online

// Coverage for the batch-aware scheduler contract: the TryBatch adapter,
// and decision-for-decision equivalence between the native batch paths
// (Mutexed, ConcurrentStrict2PL) and sequential Try on a twin
// scheduler.

import (
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/workload"
)

// countingScheduler records Try calls so the adapter's fallback is visible.
type countingScheduler struct {
	Scheduler
	tries []core.StepID
}

func (c *countingScheduler) Try(id core.StepID) Decision {
	c.tries = append(c.tries, id)
	return c.Scheduler.Try(id)
}

// TestTryBatchAdapterFallsBackToTry: a scheduler without a native batch
// path must be driven through one Try per id, in order.
func TestTryBatchAdapterFallsBackToTry(t *testing.T) {
	sys := workload.Banking()
	inner := &countingScheduler{Scheduler: NewSGT()}
	inner.Begin(sys)
	ids := firstSteps(sys)
	out := TryBatch(inner, ids)
	if len(out) != len(ids) {
		t.Fatalf("got %d decisions for %d ids", len(out), len(ids))
	}
	if len(inner.tries) != len(ids) {
		t.Fatalf("adapter made %d Try calls, want %d", len(inner.tries), len(ids))
	}
	for i, id := range inner.tries {
		if id != ids[i] {
			t.Fatalf("Try call %d got %v, want %v", i, id, ids[i])
		}
	}
}

// firstSteps returns each transaction's first step — a valid batch (one
// request per distinct transaction).
func firstSteps(sys *core.System) []core.StepID {
	ids := make([]core.StepID, sys.NumTxs())
	for tx := range ids {
		ids[tx] = core.StepID{Tx: tx, Idx: 0}
	}
	return ids
}

// TestTryBatchMatchesSequentialTry: for every native BatchTrier, deciding a
// batch must yield exactly the decisions sequential Try yields on a twin.
func TestTryBatchMatchesSequentialTry(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Scheduler
	}{
		{"mutexed/2pl-woundwait", func() Scheduler { return NewMutexed(NewStrict2PL(lockmgr.WoundWait)) }},
		{"mutexed/2pl-nowait", func() Scheduler { return NewMutexed(NewStrict2PL(lockmgr.NoWait)) }},
		{"mutexed/2pl-detect", func() Scheduler { return NewMutexed(NewStrict2PL(lockmgr.Detect)) }},
		{"2pl-sharded4/woundwait", func() Scheduler { return NewConcurrentStrict2PL(lockmgr.WoundWait, 4) }},
		{"2pl-sharded4/nowait", func() Scheduler { return NewConcurrentStrict2PL(lockmgr.NoWait, 4) }},
		{"2pl-sharded1/waitdie", func() Scheduler { return NewConcurrentStrict2PL(lockmgr.WaitDie, 1) }},
	}
	systems := []*core.System{workload.Banking(), workload.Cross(), workload.Chain()}
	for _, tc := range cases {
		for _, sys := range systems {
			batched := tc.mk()
			sequential := tc.mk()
			batched.Begin(sys)
			sequential.Begin(sys)
			bt, ok := batched.(BatchTrier)
			if !ok {
				t.Fatalf("%s does not implement BatchTrier", tc.name)
			}
			// Drive both through the same rounds of per-transaction next
			// steps until every transaction is done or stuck.
			next := make([]int, sys.NumTxs())
			for round := 0; round < 8; round++ {
				var ids []core.StepID
				for tx := 0; tx < sys.NumTxs(); tx++ {
					if next[tx] < len(sys.Txs[tx].Steps) {
						ids = append(ids, core.StepID{Tx: tx, Idx: next[tx]})
					}
				}
				if len(ids) == 0 {
					break
				}
				// TryBatch must equal the same uninterrupted Try sequence;
				// commits and aborts are applied to both twins only after
				// the whole round, exactly as the runtime does.
				got := bt.TryBatch(ids)
				for i, id := range ids {
					want := sequential.Try(id)
					if got[i] != want {
						t.Fatalf("%s on %s round %d: TryBatch(%v) = %v, sequential Try = %v",
							tc.name, sys.Name, round, id, got[i], want)
					}
				}
				for i, id := range ids {
					switch got[i] {
					case Grant:
						next[id.Tx]++
						if next[id.Tx] == len(sys.Txs[id.Tx].Steps) {
							batched.Commit(id.Tx)
							sequential.Commit(id.Tx)
						}
					case AbortTx:
						batched.Abort(id.Tx)
						sequential.Abort(id.Tx)
						next[id.Tx] = 0
					}
				}
				// Wounds must match too (order-insensitive).
				bw, sw := batched.Wounded(), sequential.Wounded()
				if len(bw) != len(sw) {
					t.Fatalf("%s on %s round %d: wounded %v vs %v", tc.name, sys.Name, round, bw, sw)
				}
			}
		}
	}
}
