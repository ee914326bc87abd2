package storage

import (
	"fmt"
	"sync"
	"testing"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

func upd(v core.Var, fn core.StepFunc) core.Step {
	return core.Step{Var: v, Kind: core.Update, Fn: fn}
}

func inc(l []core.Value) core.Value { return l[len(l)-1] + 1 }

func mustApply(t *testing.T, kv *KV, tx int, step core.Step) {
	t.Helper()
	if err := kv.ApplyStep(tx, step); err != nil {
		t.Fatalf("apply: %v", err)
	}
}

// sameRecords reports whether two snapshots are byte-identical.
func sameRecords(a, b map[core.Var]Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("variable count %d vs %d", len(a), len(b))
	}
	for v, ra := range a {
		rb, ok := b[v]
		if !ok {
			return fmt.Errorf("%s missing", v)
		}
		if ra.Scalar != rb.Scalar || ra.Sum != rb.Sum {
			return fmt.Errorf("%s scalar/sum differ: %v/%d vs %v/%d", v, ra.Scalar, ra.Sum, rb.Scalar, rb.Sum)
		}
		if len(ra.Payload) != len(rb.Payload) {
			return fmt.Errorf("%s payload length %d vs %d", v, len(ra.Payload), len(rb.Payload))
		}
		for i := range ra.Payload {
			if ra.Payload[i] != rb.Payload[i] {
				return fmt.Errorf("%s payload byte %d differs", v, i)
			}
		}
	}
	return nil
}

func TestKVGetPutScanState(t *testing.T) {
	kv := NewKV(Config{Shards: 4, ValueSize: 64})
	kv.Reset(core.DB{"a": 1, "b": 2, "c": 0})
	if got := kv.Get(0, "a"); got != 1 {
		t.Fatalf("Get(a) = %d", got)
	}
	if got := kv.Get(0, "nope"); got != 0 {
		t.Fatalf("Get of absent var = %d", got)
	}
	kv.Put(0, "c", 42)
	kv.Commit(0)
	seen := map[core.Var]core.Value{}
	kv.Scan(func(v core.Var, val core.Value) bool {
		seen[v] = val
		return true
	})
	want := core.DB{"a": 1, "b": 2, "c": 42}
	if !want.Equal(core.DB(seen)) {
		t.Fatalf("Scan saw %v, want %v", seen, want)
	}
	if !kv.State().Equal(want) {
		t.Fatalf("State() = %v, want %v", kv.State(), want)
	}
	st := kv.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesWritten != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKVPayloadSizing(t *testing.T) {
	kv := NewKV(Config{Shards: 2, ValueSize: 1024})
	kv.Reset(core.DB{"a": 7, "b": 3})
	snap := kv.Snapshot()
	if len(snap["a"].Payload) != 1024 || len(snap["b"].Payload) != 1024 {
		t.Fatalf("payload sizes %d/%d", len(snap["a"].Payload), len(snap["b"].Payload))
	}
	// The scalar is stamped into the payload and covered by the checksum.
	if snap["a"].Payload[0] != 7 {
		t.Fatalf("scalar not stamped: %d", snap["a"].Payload[0])
	}
	if checksum(snap["a"].Payload) != snap["a"].Sum {
		t.Fatal("stored checksum does not cover payload")
	}
}

func TestKVCopyOnWrite(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 32})
	kv.Reset(core.DB{"x": 5})
	before := kv.Snapshot()["x"]
	kv.Put(1, "x", 6)
	// The displaced record is untouched: same bytes as before the write.
	after := kv.Snapshot()["x"]
	if after.Scalar != 6 {
		t.Fatalf("new scalar = %d", after.Scalar)
	}
	if before.Scalar != 5 || before.Payload[0] != 5 {
		t.Fatal("old record mutated by Put")
	}
}

// TestKVApplyStepMatchesExec: applying a serial schedule step by step must
// land on exactly the state core.Exec computes.
func TestKVApplyStepMatchesExec(t *testing.T) {
	sys := (&core.System{
		Name: "serialcheck",
		Txs: []core.Transaction{
			{Steps: []core.Step{upd("x", inc), {Var: "y", Kind: core.Read}}},
			{Steps: []core.Step{upd("y", func(l []core.Value) core.Value { return 2 * l[len(l)-1] }), upd("x", inc)}},
			{Steps: []core.Step{{Var: "x", Kind: core.Write, Fn: func(l []core.Value) core.Value { return l[0] + 10 }}}},
		},
	}).Normalize()
	init := core.DB{"x": 3, "y": 4}
	kv := NewKV(Config{Shards: 4, ValueSize: 128})
	kv.Reset(init)
	var h core.Schedule
	for tx := range sys.Txs {
		for idx, step := range sys.Txs[tx].Steps {
			mustApply(t, kv, tx, step)
			h = append(h, core.StepID{Tx: tx, Idx: idx})
		}
		kv.Commit(tx)
	}
	want, err := core.Exec(sys, h, init)
	if err != nil {
		t.Fatal(err)
	}
	if !kv.State().Equal(want) {
		t.Fatalf("state %v, want %v", kv.State(), want)
	}
}

// TestRollbackByteIdentical is the core abort guarantee: a transaction that
// writes (including repeated writes to the same variable and writes to a
// fresh variable) and then rolls back leaves the store byte-identical.
func TestRollbackByteIdentical(t *testing.T) {
	kv := NewKV(Config{Shards: 4, ValueSize: 256})
	kv.Reset(core.DB{"a": 1, "b": 2, "c": 3})
	before := kv.Snapshot()
	mustApply(t, kv, 0, upd("a", inc))
	mustApply(t, kv, 0, upd("b", inc))
	mustApply(t, kv, 0, upd("a", inc)) // second write to a: undo must restore the original
	kv.Put(0, "fresh", 99)             // write to a previously absent variable
	if kv.Get(0, "a") != 3 || kv.Get(0, "fresh") != 99 {
		t.Fatal("writes not visible before rollback")
	}
	kv.Rollback(0)
	if err := sameRecords(before, kv.Snapshot()); err != nil {
		t.Fatalf("state not byte-identical after rollback: %v", err)
	}
	if kv.Stats().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", kv.Stats().Rollbacks)
	}
	// Locals were discarded: a restart starts from t_i1 again.
	mustApply(t, kv, 0, upd("a", func(l []core.Value) core.Value {
		if len(l) != 1 {
			t.Errorf("restart saw %d locals", len(l))
		}
		return l[0] + 5
	}))
	kv.Commit(0)
	if kv.Get(1, "a") != 6 {
		t.Fatalf("a = %d after restart commit", kv.Get(1, "a"))
	}
}

// TestConcurrentRollbackLeavesOthersIntact drives many transactions from
// their own goroutines against a shared sharded store — each owning a
// disjoint key set, the access discipline locks would enforce — and rolls
// half of them back. Rolled-back keys must be byte-identical to the initial
// state, committed keys must hold their writes. Run under -race in CI.
func TestConcurrentRollbackLeavesOthersIntact(t *testing.T) {
	const txs, keysPerTx = 16, 4
	kv := NewKV(Config{Shards: 8, ValueSize: 512})
	init := core.DB{}
	for i := 0; i < txs*keysPerTx; i++ {
		init[core.Var(fmt.Sprintf("k%d", i))] = core.Value(i)
	}
	kv.Reset(init)
	before := kv.Snapshot()
	var wg sync.WaitGroup
	for tx := 0; tx < txs; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for k := 0; k < keysPerTx; k++ {
					v := core.Var(fmt.Sprintf("k%d", tx*keysPerTx+k))
					mustApply(t, kv, tx, upd(v, inc))
					mustApply(t, kv, tx, upd(v, inc))
				}
				if tx%2 == 0 {
					kv.Rollback(tx)
				} else {
					kv.Commit(tx)
				}
			}
		}(tx)
	}
	wg.Wait()
	after := kv.Snapshot()
	for tx := 0; tx < txs; tx++ {
		for k := 0; k < keysPerTx; k++ {
			v := core.Var(fmt.Sprintf("k%d", tx*keysPerTx+k))
			if tx%2 == 0 {
				if err := sameRecords(
					map[core.Var]Record{v: before[v]},
					map[core.Var]Record{v: after[v]},
				); err != nil {
					t.Fatalf("rolled-back tx %d left residue: %v", tx, err)
				}
			} else {
				want := before[v].Scalar + 40 // 20 rounds × 2 increments
				if after[v].Scalar != want {
					t.Fatalf("committed tx %d: %s = %d, want %d", tx, v, after[v].Scalar, want)
				}
			}
		}
	}
}

func TestResetClearsEverything(t *testing.T) {
	kv := NewKV(Config{Shards: 2, ValueSize: 8})
	kv.Reset(core.DB{"x": 1})
	kv.Put(3, "x", 9)
	kv.Reset(core.DB{"y": 2})
	if !kv.State().Equal(core.DB{"y": 2}) {
		t.Fatalf("state after reset = %v", kv.State())
	}
	// The old undo log must be gone: rolling back tx 3 is a no-op now.
	kv.Rollback(3)
	if !kv.State().Equal(core.DB{"y": 2}) {
		t.Fatalf("stale undo applied after reset: %v", kv.State())
	}
	if st := kv.Stats(); st.Writes != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestShardAlignment(t *testing.T) {
	// The KV must place variables exactly where the sharded lock table
	// does, so storage, locks and dispatch agree on ownership.
	kv := NewKV(Config{Shards: 8})
	for i := 0; i < 100; i++ {
		v := core.Var(fmt.Sprintf("v%d", i))
		want := lockmgr.ShardOfVar(v, 8)
		if got := kv.shard(v); got != &kv.shards[want] {
			t.Fatalf("variable %s misplaced", v)
		}
	}
}

func TestNewRegistry(t *testing.T) {
	be, err := New("kv", Config{Shards: 2, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*KV); !ok {
		t.Fatalf("New(kv) returned %T", be)
	}
	if _, err := New("bogus", Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestApplyStepErrors(t *testing.T) {
	kv := NewKV(Config{Shards: 1})
	kv.Reset(core.DB{"x": 0})
	if err := kv.ApplyStep(0, core.Step{Var: "x", Kind: core.Update}); err == nil {
		t.Fatal("uninterpreted update did not error")
	}
	if err := kv.ApplyStep(0, core.Step{Var: "x", Kind: core.Read}); err != nil {
		t.Fatalf("read errored: %v", err)
	}
}
