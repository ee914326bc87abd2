package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// GroupCommitter is the storage layer's group-commit pipeline: it coalesces
// concurrent Commit calls into groups in the classic leader/follower style.
// A finishing transaction enqueues into the one queue and the first
// enqueuer to find it idle becomes the driver: it swaps out the whole
// accumulated queue and processes it as one group — (1) committing each
// member on the backend while the scheduler's locks are still held,
// preserving strictness, then (2) invoking the release callback once with
// the whole group, which is where the runtime releases scheduler locks and
// re-offers parked requests in a single sweep. Followers that enqueue
// while a driver is active return immediately: their commit and lock
// release happen on the driver (the ROADMAP's async lock release), and the
// driver keeps draining until the queue is empty, so every follower is
// picked up. No background goroutine and no wakeup handoff is involved —
// on a loaded machine the driver is already running, which is exactly
// what makes the pattern cheap where a dedicated commit thread would add a
// scheduling hop per group.
//
// What a group amortizes is the backend's sync (GroupSyncer): one per
// group instead of one per commit. A backend with nothing to sync gains
// nothing from the pipeline, and the runtime commits on it inline instead.
// There is one queue because the backend's syncs serialize anyway: a
// second driver would only split the group the first one is forming.
//
// A transaction's Enqueue must follow its last granted step (the usual
// per-transaction discipline — nothing else may act for it concurrently).
type GroupCommitter struct {
	be      Backend
	syncer  GroupSyncer // non-nil iff be implements GroupSyncer
	yield   bool        // yield once when the queue runs empty (amortizable syncs)
	release func(txs []int)
	onFail  func(txs []int, err error)

	// mu guards the queue. queue and free are a double buffer — the driver
	// swaps them on every group so enqueues append into retained capacity
	// and the steady-state pipeline allocates nothing per group.
	mu      sync.Mutex
	queue   []int
	free    []int
	driving atomic.Bool

	groups atomic.Int64 // groups processed
	txs    atomic.Int64 // transactions committed through the pipeline
}

// NewGroupCommitter returns a pipeline over be. The release callback
// receives every enqueued transaction exactly once, in groups; a nil
// release is a no-op.
func NewGroupCommitter(be Backend, release func(txs []int)) *GroupCommitter {
	g := &GroupCommitter{be: be, release: release}
	if s, ok := be.(GroupSyncer); ok {
		g.syncer = s
		// Only yield for it when the backend says its syncs actually
		// amortize across a group (a backend without the hint is assumed
		// amortizable — that is what a GroupSyncer is for).
		if c, ok := be.(interface{ SyncCoalesces() bool }); !ok || c.SyncCoalesces() {
			g.yield = true
		}
	}
	return g
}

// OnFail registers the durability-failure callback: when the backend's
// GroupSync errors after a group was committed, fn receives every
// transaction of that group together with the error, before the release
// callback runs. Durability loss is all-or-nothing per group — the fsync
// that failed covered the leader and every follower alike, so no member
// may be reported durable (this replaces drain's former silent-success
// assumption). Must be set before the first Enqueue.
func (g *GroupCommitter) OnFail(fn func(txs []int, err error)) { g.onFail = fn }

// Enqueue submits tx for commit. If the pipeline has no driver, the caller
// becomes it and processes the accumulated group (possibly including other
// transactions) before returning; otherwise the call returns immediately
// and the active driver commits tx. Either way, every enqueued transaction
// is fully processed by the time all Enqueue calls have returned.
func (g *GroupCommitter) Enqueue(tx int) {
	g.mu.Lock()
	g.queue = append(g.queue, tx)
	g.mu.Unlock()
	g.drive()
}

// drive elects the caller driver if the pipeline is idle and drains it.
// After standing down it re-checks the queue: a follower may have enqueued
// between the driver's last empty swap and the flag clearing, and that
// follower's own drive call may have already returned — someone must pick
// the orphan up, and the re-check loop is that someone.
func (g *GroupCommitter) drive() {
	for {
		if !g.driving.CompareAndSwap(false, true) {
			return // an active driver will drain the queue, our tx included
		}
		g.drain()
		g.driving.Store(false)
		g.mu.Lock()
		more := len(g.queue) > 0
		g.mu.Unlock()
		if !more {
			return
		}
	}
}

// drain processes the queue group by group until it is empty. Each swap of
// the queue under the mutex is one group: everything that accumulated while
// the previous group was committing. The swap trades the queue for the
// spare buffer (and hands the drained group back as the next spare), so a
// warm pipeline commits whole groups without allocating.
//
// Whatever is queued is sealed at once. When the group sync is the cost
// being amortized and the queue is found empty, the driver gives runnable
// peers one scheduling turn to reach Enqueue and re-checks once before
// standing down. Without that the grouping depends on the Go runtime
// handing the P to other goroutines *during* the driver's fsync syscall —
// which it does promptly on a busy multicore box but may not do at all on
// a single-CPU one (sysmon's retake interval can exceed the whole fsync),
// collapsing every group to size 1. Yielding before every group instead
// delays a group that is already queued, and yielding once before the
// first group raised tx p99 at GOMAXPROCS=1 (DESIGN.md "Fsync policies and
// the group-commit queue" has the numbers).
func (g *GroupCommitter) drain() {
	for yielded := false; ; {
		g.mu.Lock()
		if len(g.queue) == 0 {
			g.mu.Unlock()
			if !g.yield || yielded {
				return
			}
			runtime.Gosched()
			yielded = true
			continue
		}
		group := g.queue
		g.queue = g.free[:0]
		g.free = nil
		g.mu.Unlock()
		yielded = false
		for _, tx := range group {
			g.be.Commit(tx)
		}
		// Durable backends get exactly one fsync per group, here — the
		// whole point of coalescing commits. A failure is a failure of
		// every member: the group's commit records share the sync, so none
		// of them is durable, and OnFail reports them all.
		if g.syncer != nil {
			if err := g.syncer.GroupSync(); err != nil && g.onFail != nil {
				g.onFail(group, err)
			}
		}
		// Release always runs, even for a failed group: the runtime must
		// still free scheduler locks and unpark users — the failure is
		// surfaced through OnFail, not by wedging the pipeline.
		if g.release != nil {
			g.release(group)
		}
		g.groups.Add(1)
		g.txs.Add(int64(len(group)))
		g.mu.Lock()
		g.free = group[:0]
		g.mu.Unlock()
	}
}

// Close flushes the pipeline. With the leader/follower protocol every
// enqueued transaction is already processed once all Enqueue calls have
// returned, so this is a defensive sweep; it must not run concurrently
// with Enqueue.
func (g *GroupCommitter) Close() { g.drive() }

// Stats reports the pipeline's work so far: groups processed and
// transactions committed. txs/groups is the mean group size — the
// coalescing factor group commit achieved.
func (g *GroupCommitter) Stats() (groups, txs int64) {
	return g.groups.Load(), g.txs.Load()
}
