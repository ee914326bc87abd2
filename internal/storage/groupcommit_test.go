package storage

// Coverage for the group-commit pipeline: every enqueued transaction is
// committed on the backend and released exactly once, Close flushes, the
// backend commit precedes the group's release, and concurrent enqueuers
// coalesce into fewer groups than transactions. CI runs this under -race.

import (
	"sync"
	"testing"

	"optcc/internal/core"
)

// TestGroupCommitterDeliversAll: N concurrent enqueuers; after Close, the
// release callback has seen every transaction exactly once and every undo
// log is discarded.
func TestGroupCommitterDeliversAll(t *testing.T) {
	const n = 64
	kv := NewKV(Config{Shards: 4, ValueSize: 16})
	init := core.DB{}
	for i := 0; i < n; i++ {
		init[core.Var(rune('a'+i%26))+core.Var(rune('0'+i/26))] = 0
	}
	kv.Reset(init)
	var mu sync.Mutex
	released := map[int]int{}
	groups := 0
	gc := NewGroupCommitter(kv, 4, func(txs []int) {
		mu.Lock()
		groups++
		for _, tx := range txs {
			released[tx]++
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for tx := 0; tx < n; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			kv.Put(tx, core.Var(rune('a'+tx%26))+core.Var(rune('0'+tx/26)), core.Value(tx))
			gc.Enqueue(tx)
		}(tx)
	}
	wg.Wait()
	gc.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(released) != n {
		t.Fatalf("released %d of %d transactions", len(released), n)
	}
	for tx, c := range released {
		if c != 1 {
			t.Errorf("tx %d released %d times", tx, c)
		}
	}
	gotGroups, gotTxs := gc.Stats()
	if gotTxs != n {
		t.Errorf("stats report %d committed txs, want %d", gotTxs, n)
	}
	if gotGroups != int64(groups) {
		t.Errorf("stats report %d groups, release saw %d", gotGroups, groups)
	}
	// A committed transaction's undo log is gone: rolling back now must not
	// change the database.
	before := kv.State()
	for tx := 0; tx < n; tx++ {
		kv.Rollback(tx)
	}
	if !kv.State().Equal(before) {
		t.Fatal("rollback after group commit changed state: undo logs survived the pipeline")
	}
}

// TestGroupCommitterBackendBeforeRelease: within a group, every backend
// commit happens before the release callback runs (locks must release only
// after undo logs are discarded).
func TestGroupCommitterBackendBeforeRelease(t *testing.T) {
	rec := &recordingBackend{}
	var mu sync.Mutex
	var order []string
	rec.onCommit = func(tx int) {
		mu.Lock()
		order = append(order, "commit")
		mu.Unlock()
	}
	gc := NewGroupCommitter(rec, 1, func(txs []int) {
		mu.Lock()
		order = append(order, "release")
		mu.Unlock()
	})
	for tx := 0; tx < 8; tx++ {
		gc.Enqueue(tx)
	}
	gc.Close()
	mu.Lock()
	defer mu.Unlock()
	commits := 0
	for _, ev := range order {
		switch ev {
		case "commit":
			commits++
		case "release":
			if commits == 0 {
				t.Fatal("release before any commit of its group")
			}
			commits = 0
		}
	}
}

// recordingBackend is a minimal Backend stub for pipeline-order tests.
type recordingBackend struct {
	onCommit func(tx int)
}

func (r *recordingBackend) Name() string                             { return "recording" }
func (r *recordingBackend) Reset(core.DB)                            {}
func (r *recordingBackend) Get(int, core.Var) core.Value             { return 0 }
func (r *recordingBackend) Put(int, core.Var, core.Value)            {}
func (r *recordingBackend) Scan(func(v core.Var, s core.Value) bool) {}
func (r *recordingBackend) ApplyStep(int, core.Step) error           { return nil }
func (r *recordingBackend) Commit(tx int)                            { r.onCommit(tx) }
func (r *recordingBackend) Rollback(int)                             {}
func (r *recordingBackend) State() core.DB                           { return core.DB{} }
