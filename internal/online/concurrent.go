package online

import (
	"sync"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// ConcurrentScheduler is a scheduler safe for concurrent use from multiple
// goroutines. It extends the single-threaded Scheduler contract (so every
// ConcurrentScheduler also works under the replay harness) with the shard
// partition the runtime serialises decisions by: steps on variables of one
// shard are offered one at a time (the runtime holds that shard's decision
// latch around Try), steps on variables of different shards may be offered
// concurrently; calls on behalf of one transaction must still not overlap
// with each other.
type ConcurrentScheduler interface {
	Scheduler
	// NumShards returns the number of independent shards.
	NumShards() int
	// ShardOf returns the shard owning variable v. The simulator decides
	// each step request under the decision latch of ShardOf(step.Var).
	ShardOf(v core.Var) int
}

// WaitsForProvider is implemented by schedulers that can expose their
// waits-for graph at transaction granularity (ConcurrentStrict2PL). Its
// consumer sits outside this package: a decorator wrapping a scheduler
// (bench's tracer) type-asserts for it so the wrapped value keeps the view.
type WaitsForProvider interface {
	WaitsForTxs() map[int][]int
}

// GrantReleaser is implemented by schedulers whose Grant may release a lock
// and so unblock a delayed request: TreeLock's lock coupling frees the
// parent when it grants the child. The concurrent runtime (internal/sim)
// asks once per run and then re-offers parked requests after every grant;
// a scheduler that frees locks only in Commit and Abort does not implement
// it, and its grants wake nobody.
type GrantReleaser interface {
	// ReleasesOnGrant reports that a Grant may release a lock.
	ReleasesOnGrant() bool
}

// shardOfVar hash-partitions a variable across n shards. It is
// lockmgr.ShardOfVar, the single partition function, so lock state and
// dispatch always agree on ownership.
//
//optcc:hotpath
func shardOfVar(v core.Var, n int) int { return lockmgr.ShardOfVar(v, n) }

// Mutexed wraps a single-threaded Scheduler behind one mutex: the
// centralized baseline of the ConcurrentScheduler contract (one shard, all
// requests serialized). It realizes exactly the inner scheduler's fixpoint.
type Mutexed struct {
	mu    sync.Mutex
	inner Scheduler
}

// NewMutexed returns the inner scheduler behind a single global mutex.
func NewMutexed(inner Scheduler) *Mutexed { return &Mutexed{inner: inner} }

// Name implements Scheduler.
func (m *Mutexed) Name() string { return "mutexed/" + m.inner.Name() }

// Begin implements Scheduler.
func (m *Mutexed) Begin(sys *core.System) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Begin(sys)
}

// Try implements Scheduler.
func (m *Mutexed) Try(id core.StepID) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Try(id)
}

// Commit implements Scheduler.
func (m *Mutexed) Commit(tx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Commit(tx)
}

// Abort implements Scheduler.
func (m *Mutexed) Abort(tx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner.Abort(tx)
}

// Victim implements Scheduler.
func (m *Mutexed) Victim(stuck []int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Victim(stuck)
}

// Wounded implements Scheduler.
func (m *Mutexed) Wounded() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Wounded()
}

// ReleasesOnGrant implements GrantReleaser with the inner scheduler's
// answer.
func (m *Mutexed) ReleasesOnGrant() bool {
	g, ok := m.inner.(GrantReleaser)
	return ok && g.ReleasesOnGrant()
}

// NumShards implements ConcurrentScheduler.
func (m *Mutexed) NumShards() int { return 1 }

// ShardOf implements ConcurrentScheduler.
func (m *Mutexed) ShardOf(core.Var) int { return 0 }
