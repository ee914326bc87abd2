package sim

// Coverage for the concurrent engine's projection: the shard logs, each in
// its latch's decision order, merge into Metrics.Output keeping every
// variable's logged order and every transaction's program order, with only
// committed transactions' final attempts. checkMerge is the oracle; the
// contended runtime tests apply it through runMerged and runOrHang. CI runs
// this file under -race -count=5.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"optcc/internal/core"
	"optcc/internal/txtab"
)

// checkMerge checks out against r's shard logs restricted to committed
// transactions' final attempts: out holds exactly those grants, each
// transaction's in program order, and each variable's in the order its
// shard logged them.
func checkMerge(r *shardedRun, out core.Schedule) error {
	logged := map[core.Var][]core.StepID{}
	n := 0
	for _, ss := range r.shards {
		for _, g := range ss.log {
			if st := r.txs.At(int(g.tx)); !st.committed.Load() || g.attempt != st.restarts.Load() {
				continue
			}
			id := core.StepID{Tx: int(g.tx), Idx: int(g.idx)}
			v := r.sys.Txs[id.Tx].Steps[id.Idx].Var
			logged[v] = append(logged[v], id)
			n++
		}
	}
	if len(out) != n {
		return fmt.Errorf("output has %d steps, the shard logs %d final grants", len(out), n)
	}
	next := map[int]int{}
	merged := map[core.Var][]core.StepID{}
	for _, id := range out {
		if id.Idx != next[id.Tx] {
			return fmt.Errorf("tx %d step %d out of program order: tx %d is at step %d", id.Tx, id.Idx, id.Tx, next[id.Tx])
		}
		next[id.Tx]++
		v := r.sys.Txs[id.Tx].Steps[id.Idx].Var
		merged[v] = append(merged[v], id)
	}
	for v, want := range logged {
		if !slices.Equal(merged[v], want) {
			return fmt.Errorf("variable %s: output order %v, shard log order %v", v, merged[v], want)
		}
	}
	return nil
}

// runMerged runs cfg like Run and fails the test unless the concurrent
// engine's Output passes checkMerge.
func runMerged(t *testing.T, cfg Config) *Metrics {
	t.Helper()
	m, r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		if err := checkMerge(r, m.Output); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestProjectMergeOrders merges hand-built logs on three shards, one
// variable each (a, b, c on shards 0, 1, 2), that this real-time order
// produced:
//
//	T3.0 c (attempt 0)   T1.0 a   T2.0 b   T4.0 a (attempt 0)   T2.1 b
//	T1.1 b   T1.2 c   T3.0 c (attempt 1)   T2.2 a   T3.1 a (attempt 1)
//	T4.1 b (attempt 0)
//
// T1 (a, b, c) spans all three shards and T2 (b, b, a) two; T3 (c, a)
// aborted after its first step and committed its second attempt, whose
// steps sit behind its dead one; T4 (a, b) aborted and gave up. T0 never
// ran. The merge must pass the oracle, and the oracle must reject the two
// naive merges: concatenating the logs puts T2.2 before T2.0, and taking
// the heads round-robin puts T1.2 before T1.1.
func TestProjectMergeOrders(t *testing.T) {
	step := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Read} }
	sys := &core.System{Txs: []core.Transaction{
		{Steps: []core.Step{step("a")}},
		{Steps: []core.Step{step("a"), step("b"), step("c")}},
		{Steps: []core.Step{step("b"), step("b"), step("a")}},
		{Steps: []core.Step{step("c"), step("a")}},
		{Steps: []core.Step{step("a"), step("b")}},
	}}
	r := &shardedRun{sys: sys, txs: txtab.NewDense[txState](len(sys.Txs)), shards: []*shardState{
		{log: []grant{{tx: 1, idx: 0}, {tx: 4, idx: 0}, {tx: 2, idx: 2}, {tx: 3, idx: 1, attempt: 1}}},
		{log: []grant{{tx: 2, idx: 0}, {tx: 2, idx: 1}, {tx: 1, idx: 1}, {tx: 4, idx: 1}}},
		{log: []grant{{tx: 3, idx: 0}, {tx: 1, idx: 2}, {tx: 3, idx: 0, attempt: 1}}},
	}}
	for _, tx := range []int{1, 2, 3} {
		r.txs.At(tx).committed.Store(true)
	}
	r.txs.At(3).restarts.Store(1)
	r.txs.At(4).restarts.Store(1)
	out, err := r.project()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMerge(r, out); err != nil {
		t.Fatalf("%v\noutput %v", err, out)
	}
	if len(out) != 8 {
		t.Fatalf("output %v: want the 8 final grants of T1, T2 and T3", out)
	}

	final := func(g grant) bool { return g.tx != 4 && !(g.tx == 3 && g.attempt == 0) }
	var concat, robin core.Schedule
	for _, ss := range r.shards {
		for _, g := range ss.log {
			if final(g) {
				concat = append(concat, core.StepID{Tx: int(g.tx), Idx: int(g.idx)})
			}
		}
	}
	heads := make([]int, len(r.shards))
	for len(robin) < len(concat) {
		for s, ss := range r.shards {
			for heads[s] < len(ss.log) && !final(ss.log[heads[s]]) {
				heads[s]++
			}
			if heads[s] < len(ss.log) {
				g := ss.log[heads[s]]
				robin = append(robin, core.StepID{Tx: int(g.tx), Idx: int(g.idx)})
				heads[s]++
			}
		}
	}
	for name, bad := range map[string]core.Schedule{"concatenation": concat, "round robin": robin} {
		if checkMerge(r, bad) == nil {
			t.Errorf("the oracle accepts the %s %v", name, bad)
		}
	}
}

// TestProjectMergeStuck: logs no real-time order could have produced — T0
// (a, b) and T1 (b, a), each log holding the other transaction's second
// step first — cannot merge. project reports the stuck heads as an error
// instead of hanging or panicking.
func TestProjectMergeStuck(t *testing.T) {
	step := func(v core.Var) core.Step { return core.Step{Var: v, Kind: core.Read} }
	r := &shardedRun{
		sys: &core.System{Txs: []core.Transaction{
			{Steps: []core.Step{step("a"), step("b")}},
			{Steps: []core.Step{step("b"), step("a")}},
		}},
		txs: txtab.NewDense[txState](2),
		shards: []*shardState{
			{log: []grant{{tx: 1, idx: 1}, {tx: 0, idx: 0}}},
			{log: []grant{{tx: 0, idx: 1}, {tx: 1, idx: 0}}},
		},
	}
	r.txs.At(0).committed.Store(true)
	r.txs.At(1).committed.Store(true)
	out, err := r.project()
	if err == nil {
		t.Fatalf("stuck logs merged into %v", out)
	}
	for _, want := range []string{"0 of 4", "shard 0 entry 0: tx 1 step 1", "shard 1 entry 0: tx 0 step 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
