package online

// Coverage for ConcurrentStrict2PL's native TryBatch path: decision-for-
// decision equivalence with sequential Try on a twin scheduler.

import (
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/workload"
)

// TestTryBatchMatchesSequentialTry: deciding a batch must yield exactly the
// decisions sequential Try yields on a twin.
func TestTryBatchMatchesSequentialTry(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Scheduler
	}{
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
				// the whole round.
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
