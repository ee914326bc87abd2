package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// GroupCommitter is the storage layer's group-commit pipeline: it coalesces
// concurrent Commit calls into groups in the classic leader/follower style.
// A finishing transaction enqueues into its lane and the first enqueuer to
// find the lane idle becomes the lane's driver: it swaps out the whole
// accumulated queue and processes it as one group — (1) committing each
// member on the backend, discarding undo logs while the scheduler's locks
// are still held, preserving strictness, then (2) invoking the release
// callback once with the whole group, which is where the runtime releases
// scheduler locks and re-offers parked requests in a single sweep.
// Followers that enqueue while a driver is active return immediately: their
// commit and lock release happen on the driver (the ROADMAP's async lock
// release), and the driver keeps draining until its lane is empty, so every
// follower is picked up. No background goroutine and no wakeup handoff is
// involved — on a loaded machine the driver is already running, which is
// exactly what makes the pattern cheap where a dedicated commit thread
// would add a scheduling hop per group.
//
// Transactions are partitioned across lanes by id; a transaction's Enqueue
// must follow its last granted step (the usual per-transaction discipline —
// nothing else may act for it concurrently).
type GroupCommitter struct {
	be      Backend
	syncer  GroupSyncer // non-nil iff be implements GroupSyncer
	yield   bool        // yield before sealing a group (amortizable syncs)
	release func(txs []int)
	onFail  func(txs []int, err error)
	lanes   []*commitLane

	groups atomic.Int64 // groups processed
	txs    atomic.Int64 // transactions committed through the pipeline
	failed atomic.Int64 // transactions in groups whose GroupSync failed

	errMu sync.Mutex
	err   error // first GroupSync failure
}

// commitLane is one pipeline partition: a queue plus the driver flag of the
// leader/follower protocol. queue and free are a double buffer — the driver
// swaps them on every group so enqueues append into retained capacity and
// the steady-state pipeline allocates nothing per group.
type commitLane struct {
	mu      sync.Mutex
	queue   []int
	free    []int
	driving atomic.Bool
}

// NewGroupCommitter returns a pipeline with the given lane count (minimum
// 1) over be. A nil backend is allowed: the pipeline then only batches the
// release callback (group lock release without storage). The release
// callback receives every enqueued transaction exactly once, in per-lane
// groups; a nil release is a no-op.
func NewGroupCommitter(be Backend, lanes int, release func(txs []int)) *GroupCommitter {
	if lanes < 1 {
		lanes = 1
	}
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
	for i := 0; i < lanes; i++ {
		g.lanes = append(g.lanes, &commitLane{})
	}
	return g
}

// Lanes returns the pipeline's lane count.
func (g *GroupCommitter) Lanes() int { return len(g.lanes) }

// OnFail registers the durability-failure callback: when the backend's
// GroupSync errors after a group was committed, fn receives every
// transaction of that group together with the error, before the release
// callback runs. Durability loss is all-or-nothing per group — the fsync
// that failed covered the leader and every follower alike, so no member
// may be reported durable (this replaces drain's former silent-success
// assumption). Must be set before the first Enqueue.
func (g *GroupCommitter) OnFail(fn func(txs []int, err error)) { g.onFail = fn }

// Err returns the first GroupSync failure, if any — the no-callback way
// to check a drained pipeline for silent durability loss.
func (g *GroupCommitter) Err() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

// Failed returns the number of transactions in groups whose GroupSync
// failed.
func (g *GroupCommitter) Failed() int64 { return g.failed.Load() }

// Enqueue submits tx for commit. If tx's lane has no driver, the caller
// becomes it and processes the accumulated group (possibly including other
// transactions) before returning; otherwise the call returns immediately
// and the active driver commits tx. Either way, every enqueued transaction
// is fully processed by the time all Enqueue calls have returned.
func (g *GroupCommitter) Enqueue(tx int) {
	l := g.lanes[tx%len(g.lanes)]
	l.mu.Lock()
	l.queue = append(l.queue, tx)
	l.mu.Unlock()
	g.drive(l)
}

// drive elects the caller lane driver if the lane is idle and drains it.
// After standing down it re-checks the queue: a follower may have enqueued
// between the driver's last empty swap and the flag clearing, and that
// follower's own drive call may have already returned — someone must pick
// the orphan up, and the re-check loop is that someone.
func (g *GroupCommitter) drive(l *commitLane) {
	for {
		if !l.driving.CompareAndSwap(false, true) {
			return // an active driver will drain the queue, our tx included
		}
		g.drain(l)
		l.driving.Store(false)
		l.mu.Lock()
		more := len(l.queue) > 0
		l.mu.Unlock()
		if !more {
			return
		}
	}
}

// drain processes the lane queue group by group until it is empty. Each
// swap of the queue under the lane mutex is one group: everything that
// accumulated while the previous group was committing. The swap trades the
// queue for the lane's spare buffer (and hands the drained group back as
// the next spare), so a warm lane commits whole groups without allocating.
func (g *GroupCommitter) drain(l *commitLane) {
	for {
		// When the group sync is the cost being amortized, give runnable
		// peers one scheduling turn to reach Enqueue before the group is
		// sealed. Without this the grouping depends on the Go runtime
		// handing the P to other goroutines *during* the driver's fsync
		// syscall — which it does promptly on a busy multicore box but may
		// not do at all on a single-CPU one (sysmon's retake interval can
		// exceed the whole fsync), collapsing every group to size 1.
		if g.yield {
			runtime.Gosched()
		}
		l.mu.Lock()
		group := l.queue
		l.queue = l.free[:0]
		l.free = nil
		l.mu.Unlock()
		if len(group) == 0 {
			l.mu.Lock()
			l.free = group
			l.mu.Unlock()
			return
		}
		for _, tx := range group {
			if g.be != nil {
				g.be.Commit(tx)
			}
		}
		// Durable backends get exactly one fsync per group, here — the
		// whole point of coalescing commits into lanes. A failure is a
		// failure of every member: the group's commit records share the
		// sync, so none of them is durable, and OnFail reports them all.
		if g.syncer != nil {
			if err := g.syncer.GroupSync(); err != nil {
				g.errMu.Lock()
				if g.err == nil {
					g.err = err
				}
				g.errMu.Unlock()
				g.failed.Add(int64(len(group)))
				if g.onFail != nil {
					g.onFail(group, err)
				}
			}
		}
		// Release always runs, even for a failed group: the runtime must
		// still free scheduler locks and unpark users — the failure is
		// surfaced through OnFail/Err, not by wedging the pipeline.
		if g.release != nil {
			g.release(group)
		}
		g.groups.Add(1)
		g.txs.Add(int64(len(group)))
		l.mu.Lock()
		l.free = group[:0]
		l.mu.Unlock()
	}
}

// Close flushes the pipeline. With the leader/follower protocol every
// enqueued transaction is already processed once all Enqueue calls have
// returned, so this is a defensive sweep; it must not run concurrently
// with Enqueue.
func (g *GroupCommitter) Close() {
	for _, l := range g.lanes {
		g.drive(l)
	}
}

// Stats reports the pipeline's work so far: groups processed and
// transactions committed. txs/groups is the mean group size — the
// coalescing factor group commit achieved.
func (g *GroupCommitter) Stats() (groups, txs int64) {
	return g.groups.Load(), g.txs.Load()
}
