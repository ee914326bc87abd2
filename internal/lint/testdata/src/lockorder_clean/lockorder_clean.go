// Package lockorderclean is the negative fixture: every function follows
// the documented hierarchy and the analyzer must stay silent.
package lockorderclean

import (
	"sort"
	"sync"
)

type sgtStripe struct {
	mu   sync.Mutex
	subs map[string][]string
}

type sgtGraph struct {
	stripes []sgtStripe
	compMu  sync.Mutex
	parent  map[string]string
}

// compInsideStripe is the documented order: compMu nests inside a stripe.
func (r *sgtGraph) compInsideStripe(i int) {
	r.stripes[i].mu.Lock()
	defer r.stripes[i].mu.Unlock()
	r.compMu.Lock()
	r.parent["a"] = "b"
	r.compMu.Unlock()
}

// sortedLoop is the insert idiom: sort the indices, then lock ascending.
func (r *sgtGraph) sortedLoop(locked []int) {
	sort.Ints(locked)
	for _, i := range locked {
		r.stripes[i].mu.Lock()
	}
	for _, i := range locked {
		r.stripes[i].mu.Unlock()
	}
}

// rangeOverStripes locks every stripe by ranging the backing array itself —
// index order by construction.
func (r *sgtGraph) rangeOverStripes() {
	for i := range r.stripes {
		r.stripes[i].mu.Lock()
	}
	for i := range r.stripes {
		r.stripes[i].mu.Unlock()
	}
}

// retryLoop is the lockComp idiom: the loop body releases the stripe before
// the next iteration re-acquires it, so only one instance is ever held.
func (r *sgtGraph) retryLoop(i int) {
	for {
		r.compMu.Lock()
		j := i
		r.compMu.Unlock()
		r.stripes[j].mu.Lock()
		if j == i {
			r.stripes[j].mu.Unlock()
			return
		}
		r.stripes[j].mu.Unlock()
	}
}

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

type run struct {
	shards []*shardState
	sched  Mutexed
	table  []tableShard
}

// decideUnderLatch is the run-to-completion decision: the latch is
// outermost, the scheduler's mutex and a lock-table shard nest inside it.
func (r *run) decideUnderLatch(a, v int) {
	ss := r.shards[a]
	ss.mu.Lock()
	r.sched.mu.Lock()
	r.sched.n++
	r.sched.mu.Unlock()
	r.table[v].mu.Lock()
	r.table[v].n++
	r.table[v].mu.Unlock()
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
