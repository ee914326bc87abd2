package online

import (
	"fmt"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// ConcurrentStrict2PL is strict two-phase locking on the sharded lock table:
// a natively concurrent scheduler whose Try/Commit/Abort may be driven from
// many goroutines without external serialization (the runtime's per-shard
// decision latch is more than it needs). Lock state is
// hash-partitioned by variable (lockmgr.ShardedTable), uncontended exclusive
// locks take the table's lock-free fast path, and deadlock detection runs on
// the merged cross-shard waits-for graph.
//
// Two-phase locking composes across partitions — every conflict is decided
// by the single shard owning its variable, and locks are held to commit —
// so no cross-shard ordering structure is needed: every complete execution
// is conflict-serializable, exactly as with the monolithic table.
type ConcurrentStrict2PL struct {
	policy lockmgr.Policy
	shards int

	sys   *core.System
	ids   [][]int32 // sys.VarIDs(): each step's position in the declared variables
	table *lockmgr.ShardedTable

	// scratch holds one reusable TryBatch buffer set per shard. Concurrent
	// TryBatch calls must be on different shards (the BatchTrier contract),
	// so indexing by the first id's shard gives every concurrent caller
	// private scratch — the batch path allocates nothing in steady state.
	scratch []batchScratch

	// The wound mailbox. pending counts the wounds in it, so that Wounded,
	// which the engine calls after every decision, takes no mutex while it
	// is empty: every Try reads the word, only a wound writes it.
	pending atomic.Int32
	mu      sync.Mutex // guards wounded
	wounded []int
}

// batchScratch is one shard's reusable TryBatch buffers.
type batchScratch struct {
	reqs    []lockmgr.BatchReq
	results []lockmgr.Result
	out     []Decision
}

// NewConcurrentStrict2PL returns a sharded strict 2PL scheduler with the
// given deadlock policy and shard count.
func NewConcurrentStrict2PL(policy lockmgr.Policy, shards int) *ConcurrentStrict2PL {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentStrict2PL{policy: policy, shards: shards}
}

// Name implements Scheduler.
func (s *ConcurrentStrict2PL) Name() string {
	return fmt.Sprintf("2pl-sharded(%d)/%s", s.shards, s.policy)
}

// Begin implements Scheduler. Re-beginning over the same system resets
// the lock table in place instead of rebuilding it.
func (s *ConcurrentStrict2PL) Begin(sys *core.System) {
	if sys == s.sys && s.table != nil {
		s.table.Reset()
	} else {
		s.sys = sys
		s.ids = sys.VarIDs()
		s.table = lockmgr.NewShardedTable(s.policy, s.shards)
		// Pre-size the per-transaction table state, declare every
		// variable's fast slot and assign every birth up front: the
		// steady-state Acquire/ReleaseAll cycle then creates nothing, and
		// an uncontended step is one slice index by the step's variable
		// number and one CAS.
		s.table.Reserve(sys.NumTxs())
		s.table.Declare(sys.Vars())
		s.scratch = make([]batchScratch, s.shards)
	}
	s.mu.Lock()
	s.wounded = nil
	s.pending.Store(0)
	s.mu.Unlock()
	// Births in id order. Registering only stamps a birth; a transaction
	// enters a shard's table when it first needs that shard's slow path.
	for tx := 0; tx < sys.NumTxs(); tx++ {
		s.table.Register(lockmgr.TxID(tx))
	}
}

// Try implements Scheduler. Safe for concurrent use across transactions.
// A lock tx already holds strongly enough is granted by the table itself
// (the fast slot's reentrant check, or Table.Acquire's holder check).
func (s *ConcurrentStrict2PL) Try(id core.StepID) Decision {
	kind := s.sys.Txs[id.Tx].Steps[id.Idx].Kind
	r := s.table.AcquireAt(lockmgr.TxID(id.Tx), s.ids[id.Tx][id.Idx], lockMode(kind))
	if len(r.Wounded) > 0 {
		s.mu.Lock()
		for _, w := range r.Wounded {
			s.wounded = append(s.wounded, int(w))
		}
		s.pending.Store(int32(len(s.wounded)))
		s.mu.Unlock()
	}
	switch r.Status {
	case lockmgr.Granted:
		return Grant
	case lockmgr.AbortSelf:
		return AbortTx
	default:
		return Delay
	}
}

// TryBatch implements BatchTrier natively: the batch's lock requests go
// through lockmgr.ShardedTable.AcquireBatchInto, which takes each shard
// mutex at most once per run of same-shard requests. Reentrant holds are
// resolved by the table's fast-slot check and by Table.Acquire itself, so
// the result is decision-for-decision equivalent to calling Try on each id
// in order. The returned slice is the scratch of the first id's shard: it
// stays valid until that shard's next TryBatch. Its only consumer is the
// bench module's tracer.
func (s *ConcurrentStrict2PL) TryBatch(ids []core.StepID) []Decision {
	sc := &s.scratch[s.ShardOf(s.sys.Step(ids[0]).Var)]
	sc.reqs = sc.reqs[:0]
	for _, id := range ids {
		step := s.sys.Step(id)
		sc.reqs = append(sc.reqs, lockmgr.BatchReq{Tx: lockmgr.TxID(id.Tx), Var: step.Var, Mode: lockMode(step.Kind)})
	}
	sc.results = s.table.AcquireBatchInto(sc.results, sc.reqs)
	sc.out = sc.out[:0]
	var wounded []int
	for _, r := range sc.results {
		for _, w := range r.Wounded {
			wounded = append(wounded, int(w))
		}
		switch r.Status {
		case lockmgr.Granted:
			sc.out = append(sc.out, Grant)
		case lockmgr.AbortSelf:
			sc.out = append(sc.out, AbortTx)
		default:
			sc.out = append(sc.out, Delay)
		}
	}
	if len(wounded) > 0 {
		s.mu.Lock()
		s.wounded = append(s.wounded, wounded...)
		s.pending.Store(int32(len(s.wounded)))
		s.mu.Unlock()
	}
	return sc.out
}

// Commit implements Scheduler.
func (s *ConcurrentStrict2PL) Commit(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Abort implements Scheduler.
func (s *ConcurrentStrict2PL) Abort(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Victim implements Scheduler: break a cycle of the merged cross-shard
// waits-for graph by aborting its youngest member.
func (s *ConcurrentStrict2PL) Victim(stuck []int) (int, bool) {
	if cycle, found := s.table.DetectDeadlock(); found {
		return int(s.table.ChooseVictim(cycle)), true
	}
	return 0, false
}

// Wounded implements Scheduler. An empty mailbox costs one atomic load.
// A wound posted by the caller's own Try is always seen (the count is
// stored before that Try returns); one posted concurrently by another
// transaction's Try is collected by this call or a later one.
//
//optcc:hotpath
func (s *ConcurrentStrict2PL) Wounded() []int {
	if s.pending.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.wounded
	s.wounded = nil
	s.pending.Store(0)
	return w
}

// WaitsForTxs exposes the merged waits-for graph (WaitsForProvider).
func (s *ConcurrentStrict2PL) WaitsForTxs() map[int][]int {
	out := map[int][]int{}
	for w, blockers := range s.table.WaitsFor() {
		bs := make([]int, 0, len(blockers))
		for _, b := range blockers {
			bs = append(bs, int(b))
		}
		out[int(w)] = bs
	}
	return out
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentStrict2PL) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
func (s *ConcurrentStrict2PL) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
