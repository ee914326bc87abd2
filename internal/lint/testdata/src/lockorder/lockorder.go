// Package lockorder is the positive fixture: every construct here violates
// the documented lock hierarchy and must be reported. The type and field
// names replicate the real engine's (the analyzer keys classes by
// OwnerType.field, not by package).
package lockorder

import "sync"

type sgtStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type sgtGraph struct {
	stripes []sgtStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compUnderNothingThenStripe violates the nesting direction: compMu is the
// innermost graph lock and must never be held while acquiring a stripe.
func (r *sgtGraph) compUnderNothingThenStripe(i int) {
	r.compMu.Lock()
	r.stripes[i].mu.Lock() // want "sgtStripe.mu acquired while sgtGraph.compMu is held"
	r.stripes[i].mu.Unlock()
	r.compMu.Unlock()
}

// helperLocksStripe exists to hide the stripe acquisition behind a call.
func (r *sgtGraph) helperLocksStripe(i int) {
	r.stripes[i].mu.Lock()
	defer r.stripes[i].mu.Unlock()
	r.parent["a"] = "b"
}

// compThenHelper hits the same violation through the call summary.
func (r *sgtGraph) compThenHelper(i int) {
	r.compMu.Lock()
	defer r.compMu.Unlock()
	r.helperLocksStripe(i) // want "call to helperLocksStripe may acquire sgtStripe.mu while sgtGraph.compMu is held"
}

// unsortedLoop acquires many stripes in an order nothing proves ascending.
func (r *sgtGraph) unsortedLoop(locked []int) {
	for _, i := range locked {
		r.stripes[i].mu.Lock() // want "not provably ascending"
	}
	for _, i := range locked {
		r.stripes[i].mu.Unlock()
	}
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

type commitLane struct {
	mu      sync.Mutex
	pending []int
}

type run struct {
	shards []*shardState
	sched  Mutexed
	lane   commitLane
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

// kickUnderLane kicks from inside a commit lane's critical section.
func (r *run) kickUnderLane(a int) {
	r.lane.mu.Lock()
	r.retry(r.shards[a]) // want "call to retry may acquire shardState.mu while commitLane.mu is held"
	r.lane.mu.Unlock()
}
