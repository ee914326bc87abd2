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
// The graph is dense. A node is a transaction index: at most one
// incarnation of a transaction is ever in the graph, because Abort removes
// the dying incarnation's steps and edges before the transaction can run
// again, and a committed transaction never runs again. Granted steps are
// filed per variable, edges are per-transaction out/in lists, and every
// scratch set is a stamp, so Try, Commit and Abort touch no map and, once
// the lists have grown, allocate nothing.
type SGT struct {
	base
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
	txs   []sgtTx
	// spare holds emptied edge lists whose backing arrays the next nodes
	// reuse.
	spare [][]sgtEdge

	// Try stamps its sources with an even stamp and its DFS's visited set
	// with the odd one after it.
	stamp       uint64
	srcs, stack []int
}

// sgtTx is one transaction's node, one cache line.
type sgtTx struct {
	// out and in are the conflict edges in both directions. They are sets:
	// Try adds only sources that are not already predecessors.
	out, in []sgtEdge
	mark    uint64
	// held counts the granted steps still recorded; 0 means the
	// transaction is not in the graph.
	held      int32
	committed bool
}

// sgtEdge is one end of an edge: the transaction at the other end and the
// index of the mirror entry in that transaction's opposite list, so either
// end is unlinked in constant time.
type sgtEdge struct {
	tx, at int32
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

// Begin implements Scheduler: it numbers the variables, builds the step
// slab and sizes the per-transaction nodes.
func (s *SGT) Begin(sys *core.System) {
	n := sys.NumTxs()
	vars := map[core.Var]int32{}
	s.first = make([]int, n+1)
	s.steps = make([]sgtStep, 0, sys.StepCount())
	for i := range sys.Txs {
		s.first[i] = len(s.steps)
		for _, st := range sys.Txs[i].Steps {
			v, ok := vars[st.Var]
			if !ok {
				v = int32(len(vars))
				vars[st.Var] = v
			}
			s.steps = append(s.steps, sgtStep{v: v, writes: conflict.Writes(st.Kind)})
		}
	}
	s.first[n] = len(s.steps)
	s.byVar = make([][]sgtRec, len(vars))
	s.txs = make([]sgtTx, n)
	s.spare = nil
	s.stamp = 0
}

// Try implements Scheduler. The sources are the other transactions with a
// recorded conflicting step on the variable. Existing predecessors are
// stamped first and skipped: their edge is already in, and since the graph
// is acyclic the requester cannot reach them. The requester closes a cycle
// exactly when it already reaches one of the remaining, new sources.
//
//optcc:hotpath
func (s *SGT) Try(id core.StepID) Decision {
	me := id.Tx
	st := s.steps[s.first[me]+id.Idx]
	s.stamp += 2
	src := s.stamp
	for _, e := range s.txs[me].in {
		s.txs[e.tx].mark = src
	}
	srcs := s.srcs[:0]
	for _, r := range s.byVar[st.v] {
		if t := int(r.tx); t != me && (r.writes || st.writes) && s.txs[t].mark != src {
			s.txs[t].mark = src
			//cclint:ignore hotpath amortized append into the reused source scratch
			srcs = append(srcs, t)
		}
	}
	s.srcs = srcs
	if len(srcs) > 0 && s.reaches(me, src) {
		if s.AbortOnCycle {
			return AbortTx
		}
		return Delay
	}
	for _, p := range srcs {
		s.link(p, me)
	}
	//cclint:ignore hotpath amortized append: a variable's list keeps its capacity as records leave
	s.byVar[st.v] = append(s.byVar[st.v], sgtRec{tx: int32(me), writes: st.writes})
	s.txs[me].held++
	return Grant
}

// reaches reports whether a DFS from me over out-edges meets a node
// stamped src, stopping at the first one.
//
//optcc:hotpath
func (s *SGT) reaches(me int, src uint64) bool {
	seen := src + 1
	s.txs[me].mark = seen
	//cclint:ignore hotpath amortized append into the reused DFS stack
	stack := append(s.stack[:0], me)
	found := false
	for len(stack) > 0 && !found {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.txs[u].out {
			if n := &s.txs[e.tx]; n.mark == src {
				found = true
				break
			} else if n.mark != seen {
				n.mark = seen
				//cclint:ignore hotpath amortized append into the reused DFS stack
				stack = append(stack, int(e.tx))
			}
		}
	}
	s.stack = stack
	return found
}

// link adds the edge p → me.
//
//optcc:hotpath
func (s *SGT) link(p, me int) {
	from, to := &s.txs[p], &s.txs[me]
	i, j := int32(len(from.out)), int32(len(to.in))
	from.out = s.push(from.out, sgtEdge{tx: int32(me), at: j})
	to.in = s.push(to.in, sgtEdge{tx: int32(p), at: i})
}

// unlinkIn deletes entry j of tx's in-list, moving the last entry into its
// place and repointing that entry's mirror.
//
//optcc:hotpath
func (s *SGT) unlinkIn(tx int, j int32) {
	l := s.txs[tx].in
	last := int32(len(l) - 1)
	if j != last {
		m := l[last]
		l[j] = m
		s.txs[m.tx].out[m.at].at = j
	}
	s.txs[tx].in = l[:last]
}

// unlinkOut is unlinkIn for tx's out-list.
//
//optcc:hotpath
func (s *SGT) unlinkOut(tx int, i int32) {
	l := s.txs[tx].out
	last := int32(len(l) - 1)
	if i != last {
		m := l[last]
		l[i] = m
		s.txs[m.tx].in[m.at].at = i
	}
	s.txs[tx].out = l[:last]
}

// Commit implements Scheduler: a committed node with no predecessor can
// never join a future cycle (new edges only leave committed nodes), so it
// leaves the graph at once.
//
//optcc:hotpath
func (s *SGT) Commit(tx int) {
	s.txs[tx].committed = true
	if len(s.txs[tx].in) == 0 {
		s.drop(tx)
	}
}

// Abort implements Scheduler: the incarnation leaves the graph, unlinked
// from its predecessors first.
//
//optcc:hotpath
func (s *SGT) Abort(tx int) {
	n := &s.txs[tx]
	for _, e := range n.in {
		s.unlinkOut(int(e.tx), e.at)
	}
	n.in = s.recycle(n.in)
	s.drop(tx)
}

// drop removes a node whose in-list is empty — its recorded steps, its
// out-edges and their mirrors — and cascades to every committed successor
// whose in-list empties. Because no committed node without a predecessor
// survives a Commit or Abort, and Try only adds edges, this leaves the
// graph the fixpoint sweep "remove committed zero-in-degree nodes until
// none is left" would.
//
//optcc:hotpath
func (s *SGT) drop(tx int) {
	//cclint:ignore hotpath amortized append into the reused DFS stack
	stack := append(s.stack[:0], tx)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &s.txs[u]
		for _, e := range n.out {
			v := int(e.tx)
			s.unlinkIn(v, e.at)
			if len(s.txs[v].in) == 0 && s.txs[v].committed {
				//cclint:ignore hotpath amortized append into the reused DFS stack
				stack = append(stack, v)
			}
		}
		n.out = s.recycle(n.out)
		n.in = s.recycle(n.in)
		n.committed = false
		s.forget(u)
	}
	s.stack = stack
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

// push appends e to an edge list, giving a list that has no backing array
// a spare one.
//
//optcc:hotpath
func (s *SGT) push(l []sgtEdge, e sgtEdge) []sgtEdge {
	if l == nil && len(s.spare) > 0 {
		l = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	//cclint:ignore hotpath amortized append: edge lists are recycled through spare
	return append(l, e)
}

// recycle keeps an edge list's backing array for reuse and returns the
// empty list.
//
//optcc:hotpath
func (s *SGT) recycle(l []sgtEdge) []sgtEdge {
	if cap(l) > 0 {
		//cclint:ignore hotpath amortized append: spare holds at most one list per node ever built
		s.spare = append(s.spare, l[:0])
	}
	return nil
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
func (s *SGT) Victim(stuck []int) (int, bool) {
	if len(stuck) == 0 {
		return 0, false
	}
	best, bestIn := stuck[0], -1
	for _, tx := range stuck {
		if in := len(s.txs[tx].in); in > bestIn {
			best, bestIn = tx, in
		}
	}
	return best, true
}

// String renders a summary for debugging.
func (s *SGT) String() string {
	nodes, steps := s.GraphSize()
	return fmt.Sprintf("sgt{nodes=%d steps=%d}", nodes, steps)
}
