package storage

// Coverage for the group-commit pipeline: every enqueued transaction is
// committed on the backend and released exactly once, Close flushes, the
// backend commit precedes the group's release, and followers that enqueue
// while the driver syncs are committed as one group. CI runs this under
// -race.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"optcc/internal/core"
)

// TestGroupCommitterDeliversAll: N concurrent enqueuers into the one queue;
// after Close, the release callback has seen every transaction exactly once
// and every undo log is discarded.
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
	gc := NewGroupCommitter(kv, func(txs []int) {
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
	gc := NewGroupCommitter(rec, func(txs []int) {
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

// gatedRecorder is a recordingBackend whose GroupSync signals entered and
// then blocks until open is closed: the handle for holding a driver inside
// a group's sync while the test lines up followers.
type gatedRecorder struct {
	recordingBackend
	entered chan struct{}
	open    chan struct{}
}

func (g *gatedRecorder) GroupSync() error {
	g.entered <- struct{}{}
	<-g.open
	return nil
}

// TestGroupCommitterOneQueueGroups is the deterministic grouping test for
// the one queue: tx 0's driver blocks in its group's sync while n other
// goroutines enqueue. Every one of them returns at once (the driver owns
// their commits), and when the sync opens the driver commits all n as
// exactly one more group — 2 groups, n+1 transactions — with every
// backend Commit before the release of its group.
func TestGroupCommitterOneQueueGroups(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	committed := map[int]bool{}
	var groups [][]int
	// entered has room for every possible sync, so a driver that forms
	// more groups than expected fails the test instead of hanging it.
	gr := &gatedRecorder{entered: make(chan struct{}, n+1), open: make(chan struct{})}
	gr.onCommit = func(tx int) {
		mu.Lock()
		committed[tx] = true
		mu.Unlock()
	}
	gc := NewGroupCommitter(gr, func(txs []int) {
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range txs {
			if !committed[tx] {
				t.Errorf("tx %d released before its backend commit", tx)
			}
		}
		groups = append(groups, append([]int(nil), txs...))
	})
	driverDone := make(chan struct{})
	go func() {
		gc.Enqueue(0)
		close(driverDone)
	}()
	<-gr.entered // the driver committed {0} and holds its sync
	var wg sync.WaitGroup
	for tx := 1; tx <= n; tx++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			gc.Enqueue(tx) // a follower: returns while the driver is busy
		}(tx)
	}
	wg.Wait()
	close(gr.open) // group {0} syncs, then the driver drains the followers
	<-driverDone
	gc.Close()

	gotGroups, gotTxs := gc.Stats()
	if gotGroups != 2 || gotTxs != n+1 {
		t.Fatalf("Stats() = %d groups, %d txs; want 2 groups, %d txs", gotGroups, gotTxs, n+1)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(groups) != 2 || len(groups[0]) != 1 || groups[0][0] != 0 || len(groups[1]) != n {
		t.Fatalf("released groups %v, want [[0] <the %d followers>]", groups, n)
	}
	seen := map[int]bool{}
	for _, tx := range groups[1] {
		seen[tx] = true
	}
	for tx := 1; tx <= n; tx++ {
		if !seen[tx] {
			t.Fatalf("follower %d missing from the second group %v", tx, groups[1])
		}
	}
}

// TestGroupCommitterGroupsOnOneProc: on one processor, four workers each
// enqueue a transaction and wait for its release before enqueuing the next.
// Groups form only because the driver, finding the queue empty, yields one
// turn to the peers it just released before standing down; without that
// yield one worker runs all its commits as groups of one before the next
// is ever scheduled.
func TestGroupCommitterGroupsOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers, perWorker = 4, 200
	var done [workers]chan struct{}
	for w := range done {
		done[w] = make(chan struct{}, 1)
	}
	gc := NewGroupCommitter(syncNoop{}, func(txs []int) {
		for _, tx := range txs {
			done[tx/perWorker] <- struct{}{}
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				gc.Enqueue(w*perWorker + i)
				<-done[w]
			}
		}(w)
	}
	wg.Wait()
	groups, txs := gc.Stats()
	if txs != workers*perWorker {
		t.Fatalf("committed %d of %d transactions", txs, workers*perWorker)
	}
	if mean := float64(txs) / float64(groups); mean <= 1 {
		t.Fatalf("mean group size %.2f on one processor, want > 1", mean)
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

// syncNoop is a memory-only backend that claims amortizable syncs, so the
// pipeline runs exactly as on a durable store, empty-queue yield included,
// with nothing but the pipeline to measure.
type syncNoop struct{ Noop }

func (syncNoop) GroupSync() error { return nil }

// BenchmarkGroupCommitterEnqueue is the pipeline's per-layer number:
// parallel committers enqueue into the one queue; ns/op is one committed
// and released transaction.
func BenchmarkGroupCommitterEnqueue(b *testing.B) {
	var released atomic.Int64
	gc := NewGroupCommitter(syncNoop{}, func(txs []int) { released.Add(int64(len(txs))) })
	var nextTx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			gc.Enqueue(int(nextTx.Add(1)))
		}
	})
	gc.Close()
	b.StopTimer()
	if got := released.Load(); got != int64(b.N) {
		b.Fatalf("released %d of %d transactions", got, b.N)
	}
	groups, txs := gc.Stats()
	b.ReportMetric(float64(txs)/float64(groups), "txs/group")
}
