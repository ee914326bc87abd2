package online

import (
	"fmt"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/vartab"
)

// containsNode is slices.Contains for sgtNode lists without the generic
// instantiation (the hotpath analyzer models type-parameter arguments as
// interface conversions).
//
//optcc:hotpath
func containsNode(list []sgtNode, n sgtNode) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

// ConcurrentSGT is natively concurrent serialization graph testing: the
// SGT scheduler rebuilt for the sharded runtime. Where Mutexed(SGT) runs
// the whole single-threaded SGT behind one mutex, ConcurrentSGT finds
// conflicts under the shard latches and holds a graph mutex only to edge
// a step that has them:
//
//   - Conflicts are discovered through per-variable marks (internal/online
//     marks.go): each variable's entry lists the live incarnations that
//     read and wrote it. The ConcurrentScheduler contract decides every
//     step of a variable under its shard's decision latch, so the lists
//     need no synchronization of their own — the latch holder appends on
//     grant and compacts dead incarnations on the variable's next visit. The lists hold every
//     live reader/writer, not just the last ones: last-marks would lose
//     transitive edges when an intermediate incarnation aborts and admit
//     non-serializable schedules.
//   - Edges and cycle checks live in sgtGraph (sgtgraph.go): the
//     sequential SGT's dense graph behind one mutex. A zero-conflict grant
//     (empty source set) takes no lock at all.
//   - Commit and abort drop nodes with the sequential SGT's cascade and
//     retire exactly the nodes it removes.
//
// Cycle handling matches the sequential pair: delay-on-cycle preserves the
// CSR fixpoint (NewConcurrentSGT), abort-on-cycle guarantees progress
// (NewConcurrentSGTAborting). Under single-goroutine driving its decisions
// match SGT verbatim in both modes — see
// TestConcurrentSGTDecisionEquivalence.
type ConcurrentSGT struct {
	base
	// AbortOnCycle aborts the requester when a grant would close a cycle
	// instead of delaying it, matching SGTAborting.
	AbortOnCycle bool
	shards       int

	sys   *core.System
	ids   [][]int32 // sys.VarIDs(): each step's index into marks
	marks *vartab.Table[sgtEntry]
	graph *sgtGraph
}

// NewConcurrentSGT returns a natively concurrent SGT scheduler that delays
// on cycles, over the given shard count (minimum 1).
func NewConcurrentSGT(shards int) *ConcurrentSGT {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentSGT{shards: shards}
}

// NewConcurrentSGTAborting returns a natively concurrent SGT scheduler
// that aborts the requester on cycles.
func NewConcurrentSGTAborting(shards int) *ConcurrentSGT {
	s := NewConcurrentSGT(shards)
	s.AbortOnCycle = true
	return s
}

// Name implements Scheduler.
func (s *ConcurrentSGT) Name() string {
	if s.AbortOnCycle {
		return fmt.Sprintf("csgt(%d)/abort", s.shards)
	}
	return fmt.Sprintf("csgt(%d)/delay", s.shards)
}

// Begin implements Scheduler. Re-beginning over the same system (the
// replay harness enumerating histories does this per history) reuses the
// marks table and graph via reset instead of rebuilding them.
func (s *ConcurrentSGT) Begin(sys *core.System) {
	if sys == s.sys && s.marks != nil && len(s.graph.state) == sys.NumTxs() {
		s.marks.Range(resetSGTEntry)
		s.graph.reset()
		return
	}
	s.sys = sys
	s.ids = sys.VarIDs()
	s.marks = vartab.New[sgtEntry](sys.Vars())
	s.graph = newSGTGraph(sys.NumTxs())
}

// collect compacts dead incarnations out of a mark list in place and
// appends the live ones (except me) to src, deduplicating — an
// incarnation that both read and wrote the variable is one source. It
// runs under the variable's shard latch, which serialises every toucher
// of the list.
//
//optcc:hotpath
func (s *ConcurrentSGT) collect(list []sgtNode, me sgtNode, src []sgtNode) ([]sgtNode, []sgtNode) {
	kept := list[:0]
	for _, n := range list {
		if !s.graph.alive(n) {
			continue
		}
		//cclint:ignore hotpath in-place compaction: kept aliases list's backing array, never grows
		kept = append(kept, n)
		if n == me || containsNode(src, n) {
			continue
		}
		//cclint:ignore hotpath amortized append into the entry's reusable source scratch
		src = append(src, n)
	}
	return kept, src
}

// record adds me to a mark list if not already present. Runs under the
// variable's shard latch.
//
//optcc:hotpath
func (s *ConcurrentSGT) record(list []sgtNode, me sgtNode) []sgtNode {
	if containsNode(list, me) {
		return list
	}
	//cclint:ignore hotpath amortized append into the entry's reusable mark list
	return append(list, me)
}

// Try implements Scheduler. The zero-conflict path — no live conflicting
// marks on the step's variable — is lock-free: marks lookup, liveness
// loads, mark record. Conflicting grants go through the graph's insert
// under its mutex.
//
//optcc:hotpath
func (s *ConcurrentSGT) Try(id core.StepID) Decision {
	me := s.graph.node(id.Tx)
	step := s.sys.Step(id)
	e := s.marks.At(s.ids[id.Tx][id.Idx])
	src := e.srcBuf[:0]
	// A write conflicts with every live reader and writer; a pure read
	// only with writers (conflict.Conflicts on a shared variable).
	e.writers, src = s.collect(e.writers, me, src)
	if conflict.Writes(step.Kind) {
		e.readers, src = s.collect(e.readers, me, src)
	}
	e.srcBuf = src
	if !s.graph.insert(me, src) {
		if s.AbortOnCycle {
			return AbortTx
		}
		return Delay
	}
	if conflict.Writes(step.Kind) {
		e.writers = s.record(e.writers, me)
	} else {
		e.readers = s.record(e.readers, me)
	}
	return Grant
}

// TryBatch implements BatchTrier by deciding in order through Try. Its
// only consumer is the bench module's tracer.
func (s *ConcurrentSGT) TryBatch(ids []core.StepID) []Decision {
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}

// Commit implements Scheduler.
//
//optcc:hotpath
func (s *ConcurrentSGT) Commit(tx int) { s.graph.commitTx(tx) }

// Abort implements Scheduler: the incarnation's node leaves the graph and
// its marks die everywhere, atomically under the graph mutex.
//
//optcc:hotpath
func (s *ConcurrentSGT) Abort(tx int) { s.graph.abortTx(tx) }

// Victim implements Scheduler: abort the stuck transaction with the most
// incoming conflict edges (most constrained), the sequential SGT's choice
// including its first-max tie-break over the stuck order.
func (s *ConcurrentSGT) Victim(stuck []int) (int, bool) {
	s.graph.mu.Lock()
	defer s.graph.mu.Unlock()
	return s.graph.victim(stuck)
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentSGT) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
//
//optcc:hotpath
func (s *ConcurrentSGT) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
