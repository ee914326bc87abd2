// Package lockorderclean is the negative fixture: every function follows
// the documented hierarchy and the analyzer must stay silent.
package lockorderclean

import "sync"

type tableShard struct {
	mu sync.Mutex
	n  int
}

type shardedTable struct {
	shards []tableShard
}

// sweep is the release-before-next idiom over shards.
func (s *shardedTable) sweep() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].n++
		s.shards[i].mu.Unlock()
	}
}

// retryLoop releases the shard on every path through the loop body before
// the next iteration may take another, so only one instance is ever held.
func (s *shardedTable) retryLoop(i int) {
	for {
		s.shards[i].mu.Lock()
		if s.shards[i].n > 0 {
			s.shards[i].mu.Unlock()
			return
		}
		s.shards[i].mu.Unlock()
		i = (i + 1) % len(s.shards)
	}
}

type Disk struct {
	syncMu sync.Mutex
	mu     sync.Mutex
	n      int
}

// groupSync is the documented order: syncMu outside, mu inside, and mu is
// released before the sync work so appends can proceed mid-fsync.
func (d *Disk) groupSync() {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	_ = n
}

// plainBackend is the ordinary single-mutex method shape.
func (d *Disk) plainBackend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
}

type shardState struct {
	mu     sync.Mutex
	parked []int
}

type Mutexed struct {
	mu sync.Mutex
	n  int
}

type sgtGraph struct {
	mu    sync.Mutex
	edges []int
}

type run struct {
	shards []*shardState
	sched  Mutexed
	table  []tableShard
	graph  sgtGraph
}

// decideUnderLatch is the run-to-completion decision: the latch is
// outermost; the scheduler's mutex, a lock-table shard and the SGT graph
// mutex nest inside it.
func (r *run) decideUnderLatch(a, v int) {
	ss := r.shards[a]
	ss.mu.Lock()
	r.sched.mu.Lock()
	r.sched.n++
	r.sched.mu.Unlock()
	r.table[v].mu.Lock()
	r.table[v].n++
	r.table[v].mu.Unlock()
	r.graph.mu.Lock()
	r.graph.edges = append(r.graph.edges, v)
	r.graph.mu.Unlock()
	ss.mu.Unlock()
}

// retry takes one latch.
func (r *run) retry(ss *shardState) {
	ss.mu.Lock()
	ss.parked = ss.parked[:0]
	ss.mu.Unlock()
}

// decideUnlockKick is the documented order: decide, unlock, then kick the
// other shards one latch at a time.
func (r *run) decideUnlockKick(a int) {
	r.shards[a].mu.Lock()
	r.shards[a].parked = append(r.shards[a].parked, a)
	r.shards[a].mu.Unlock()
	for _, ss := range r.shards {
		r.retry(ss)
	}
}

// sweep visits every latch, releasing each before the next.
func (r *run) sweep() (n int) {
	for _, ss := range r.shards {
		ss.mu.Lock()
		n += len(ss.parked)
		ss.mu.Unlock()
	}
	return n
}

type shardedRun struct {
	breakMu sync.Mutex
	run
}

// breakAfterUnlock is the documented breaker order: the parking request
// unlocks its latch, then takes the breaker's mutex, which scans and kicks
// the latches one at a time under it.
func (r *shardedRun) breakAfterUnlock(a int) {
	r.shards[a].mu.Lock()
	r.shards[a].parked = append(r.shards[a].parked, a)
	r.shards[a].mu.Unlock()
	r.breakMu.Lock()
	_ = r.sweep()
	r.retry(r.shards[a])
	r.breakMu.Unlock()
}
