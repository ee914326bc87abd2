// Package lockorder is the positive fixture: every construct here violates
// the documented lock hierarchy and must be reported. The type and field
// names replicate the real engine's (the analyzer keys classes by
// OwnerType.field, not by package).
package lockorder

import "sync"

type sgtGraph struct {
	mu    sync.Mutex
	edges []int
}

// lockedHelper exists to hide the graph mutex behind a call.
func (g *sgtGraph) lockedHelper() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.edges)
}

// helperUnderMu re-takes the one graph mutex through a call.
func (g *sgtGraph) helperUnderMu() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lockedHelper() // want "call to lockedHelper may acquire sgtGraph.mu, which is already held"
}

type tableShard struct {
	mu sync.Mutex
	n  int
}

type shardedTable struct {
	shards []tableShard
}

// nestedShards holds one shard mutex while taking another: the sharded
// table's sweeps must release each shard before locking the next.
func (s *shardedTable) nestedShards(a, b int) {
	s.shards[a].mu.Lock()
	s.shards[b].mu.Lock() // want "second tableShard.mu acquired while one is held"
	s.shards[b].n++
	s.shards[b].mu.Unlock()
	s.shards[a].mu.Unlock()
}

// lockAll accumulates one shard mutex per iteration: the class is
// release-before-next, whatever order the loop visits.
func (s *shardedTable) lockAll(order []int) {
	for _, i := range order {
		s.shards[i].mu.Lock() // want "a loop acquires multiple tableShard.mu instances"
	}
	for _, i := range order {
		s.shards[i].mu.Unlock()
	}
}

type Disk struct {
	syncMu sync.Mutex
	mu     sync.Mutex
	n      int
}

// syncUnderBackend takes the group-sync mutex under the backend mutex; the
// documented order is syncMu outside mu (GroupSync), never the reverse.
func (d *Disk) syncUnderBackend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncMu.Lock() // want "Disk.syncMu acquired while Disk.mu is held"
	d.syncMu.Unlock()
}

// helperLocksSync exists to hide the group-sync acquisition behind a call.
func (d *Disk) helperLocksSync() {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.n++
}

// backendThenHelper hits syncUnderBackend's violation through the call
// summary.
func (d *Disk) backendThenHelper() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.helperLocksSync() // want "call to helperLocksSync may acquire Disk.syncMu while Disk.mu is held"
}

// recursiveSync self-deadlocks on a single-instance class.
func (d *Disk) recursiveSync() {
	d.syncMu.Lock()
	d.syncMu.Lock() // want "recursive acquisition of Disk.syncMu"
	d.syncMu.Unlock()
	d.syncMu.Unlock()
}

// lockInLoopNoUnlock re-locks a single-instance class every iteration
// without releasing it in the loop body.
func (d *Disk) lockInLoopNoUnlock(n int) {
	for i := 0; i < n; i++ {
		d.mu.Lock() // want "Disk.mu locked inside a loop with no unlock in the loop body"
		d.n++
	}
}

type shardState struct {
	mu     sync.Mutex
	parked []int
}

type Mutexed struct {
	mu sync.Mutex
	n  int
}

type GroupCommitter struct {
	mu    sync.Mutex
	queue []int
}

type run struct {
	shards []*shardState
	sched  Mutexed
	gc     GroupCommitter
}

// retry is the helper a kick goes through: it takes a latch.
func (r *run) retry(ss *shardState) {
	ss.mu.Lock()
	ss.parked = ss.parked[:0]
	ss.mu.Unlock()
}

// kickUnderLatch re-offers another shard's parked requests without
// unlocking first: two latches held at once, hidden behind a call.
func (r *run) kickUnderLatch(a, b int) {
	r.shards[a].mu.Lock()
	r.retry(r.shards[b]) // want "call to retry may acquire a second shardState.mu while one is held"
	r.shards[a].mu.Unlock()
}

// twoLatches holds one latch while locking the next.
func (r *run) twoLatches(a, b int) {
	r.shards[a].mu.Lock()
	r.shards[b].mu.Lock() // want "second shardState.mu acquired while one is held"
	r.shards[b].mu.Unlock()
	r.shards[a].mu.Unlock()
}

// latchUnderScheduler takes the latch inside the scheduler's own mutex: the
// latch is outermost, a decision runs under it, never the reverse.
func (r *run) latchUnderScheduler(a int) {
	r.sched.mu.Lock()
	defer r.sched.mu.Unlock()
	r.shards[a].mu.Lock() // want "shardState.mu acquired while Mutexed.mu is held"
	r.shards[a].mu.Unlock()
}

// kickUnderQueue kicks from inside the group-commit queue's critical
// section.
func (r *run) kickUnderQueue(a int) {
	r.gc.mu.Lock()
	r.retry(r.shards[a]) // want "call to retry may acquire shardState.mu while GroupCommitter.mu is held"
	r.gc.mu.Unlock()
}

type shardedRun struct {
	breakMu sync.Mutex
	breaks  int
	shards  []*shardState
	sched   Mutexed
}

// maybeBreak takes the breaker's mutex.
func (r *shardedRun) maybeBreak() {
	r.breakMu.Lock()
	r.breaks++
	r.breakMu.Unlock()
}

// breakUnderLatch runs the breaker before unlocking the parking request's
// latch; the breaker scans the latches under its mutex, so the two orders
// would cross.
func (r *shardedRun) breakUnderLatch(a int) {
	r.shards[a].mu.Lock()
	r.maybeBreak() // want "call to maybeBreak may acquire shardedRun.breakMu while shardState.mu is held"
	r.shards[a].mu.Unlock()
}

// breakUnderScheduler takes the breaker's mutex inside the scheduler's.
func (r *shardedRun) breakUnderScheduler() {
	r.sched.mu.Lock()
	r.breakMu.Lock() // want "shardedRun.breakMu acquired while Mutexed.mu is held; shardedRun.breakMu is outermost"
	r.breakMu.Unlock()
	r.sched.mu.Unlock()
}
