package online

import (
	"fmt"

	"optcc/internal/conflict"
	"optcc/internal/core"
)

// SGT is a serialization-graph-testing scheduler: it grants a step exactly
// when doing so keeps the conflict graph over live transaction
// incarnations acyclic. With delay-on-cycle, its fixpoint set is precisely
// the conflict-serializable schedules — the practical realization of the
// serialization scheduler of Theorem 3 (CSR ⊆ SR).
//
// The graph is the dense sgtCore. At most one incarnation of a transaction
// is ever in it, because Abort removes the dying incarnation's steps and
// edges before the transaction can run again, and a committed transaction
// never runs again. Granted steps are filed per variable, so Try, Commit
// and Abort touch no map and, once the lists have grown, allocate nothing.
type SGT struct {
	base
	sgtCore
	// AbortOnCycle aborts the requester when a grant would close a cycle
	// instead of delaying it (the classic SGT certifier). Delays preserve
	// the fixpoint; aborts guarantee progress.
	AbortOnCycle bool

	// steps[first[tx]+i] is step i of tx as the conflict test sees it; one
	// slab for the whole system, built by Begin.
	first []int
	steps []sgtStep
	// byVar[v] holds one record per granted step on v still in the graph.
	byVar [][]sgtRec
}

// sgtStep is a step's dense variable index and whether it writes.
type sgtStep struct {
	v      int32
	writes bool
}

// sgtRec is one granted step filed under its variable.
type sgtRec struct {
	tx     int32
	writes bool
}

// NewSGT returns an SGT scheduler that delays on cycles.
func NewSGT() *SGT { return &SGT{} }

// NewSGTAborting returns an SGT scheduler that aborts the requester on
// cycles.
func NewSGTAborting() *SGT { return &SGT{AbortOnCycle: true} }

// Name implements Scheduler.
func (s *SGT) Name() string {
	if s.AbortOnCycle {
		return "sgt/abort"
	}
	return "sgt/delay"
}

// Begin implements Scheduler: it builds the step slab from the system's
// variable numbers (VarIDs) and sizes the per-transaction nodes.
func (s *SGT) Begin(sys *core.System) {
	n := sys.NumTxs()
	ids := sys.VarIDs()
	s.first = make([]int, n+1)
	s.steps = make([]sgtStep, 0, sys.StepCount())
	for i := range sys.Txs {
		s.first[i] = len(s.steps)
		for j, st := range sys.Txs[i].Steps {
			s.steps = append(s.steps, sgtStep{v: ids[i][j], writes: conflict.Writes(st.Kind)})
		}
	}
	s.first[n] = len(s.steps)
	s.byVar = make([][]sgtRec, len(sys.Vars()))
	s.init(n)
}

// Try implements Scheduler. The sources are the other transactions with a
// recorded conflicting step on the variable; the requester closes a cycle
// exactly when it already reaches one of them that is not yet a
// predecessor.
//
//optcc:hotpath
func (s *SGT) Try(id core.StepID) Decision {
	me := id.Tx
	st := s.steps[s.first[me]+id.Idx]
	src := s.sources(me)
	for _, r := range s.byVar[st.v] {
		if t := int(r.tx); t != me && (r.writes || st.writes) {
			s.addSource(t, src)
		}
	}
	if !s.admit(me, src) {
		if s.AbortOnCycle {
			return AbortTx
		}
		return Delay
	}
	//cclint:ignore hotpath amortized append: a variable's list keeps its capacity as records leave
	s.byVar[st.v] = append(s.byVar[st.v], sgtRec{tx: int32(me), writes: st.writes})
	s.txs[me].held++
	return Grant
}

// Commit implements Scheduler: the transaction leaves the graph at once if
// it has no predecessor, taking its committed cascade with it.
//
//optcc:hotpath
func (s *SGT) Commit(tx int) {
	for _, u := range s.commit(tx) {
		s.forget(u)
	}
}

// Abort implements Scheduler: the incarnation leaves the graph, unlinked
// from its predecessors first.
//
//optcc:hotpath
func (s *SGT) Abort(tx int) {
	for _, u := range s.abort(tx) {
		s.forget(u)
	}
}

// forget removes tx's records from the lists of the variables its steps
// touch.
//
//optcc:hotpath
func (s *SGT) forget(tx int) {
	left := int(s.txs[tx].held)
	for i, end := s.first[tx], s.first[tx+1]; left > 0 && i < end; i++ {
		v := s.steps[i].v
		list := s.byVar[v]
		kept := list[:0]
		for _, r := range list {
			if int(r.tx) != tx {
				//cclint:ignore hotpath in-place compaction: kept aliases list's backing array, never grows
				kept = append(kept, r)
			}
		}
		left -= len(list) - len(kept)
		s.byVar[v] = kept
	}
	s.txs[tx].held = 0
}

// GraphSize returns the number of live nodes and recorded steps (for tests
// of the pruning logic).
func (s *SGT) GraphSize() (nodes, steps int) {
	for i := range s.txs {
		if k := int(s.txs[i].held); k > 0 {
			nodes++
			steps += k
		}
	}
	return nodes, steps
}

// Victim implements Scheduler: abort the stuck transaction with the most
// incoming conflict edges (most constrained).
func (s *SGT) Victim(stuck []int) (int, bool) { return s.victim(stuck) }

// String renders a summary for debugging.
func (s *SGT) String() string {
	nodes, steps := s.GraphSize()
	return fmt.Sprintf("sgt{nodes=%d steps=%d}", nodes, steps)
}
