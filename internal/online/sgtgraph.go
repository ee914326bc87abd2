package online

import (
	"sync"
	"sync/atomic"
)

// sgtNode identifies a transaction incarnation in ConcurrentSGT's marks.
type sgtNode struct {
	tx, epoch int
}

// sgtGraph is ConcurrentSGT's serialization graph: the sequential SGT's
// dense sgtCore behind one mutex, plus the per-transaction liveness word
// the marks read lock-free.
//
//   - A graph node is a transaction index, for SGT's reason: abortTx
//     unlinks the dying incarnation's edges and starts a fresh epoch in one
//     critical section, so at most one incarnation of a transaction is ever
//     in the graph.
//   - state[tx] packs the transaction's current epoch and a retired bit
//     (2e = epoch e live, 2e+1 = retired). The per-variable mark lists
//     ConcurrentSGT keeps are append-only and compacted lazily, so a
//     lock-free marks read can surface an incarnation that was committed
//     and dropped, or aborted, a moment ago. Both happen under mu, so
//     insert's liveness check under mu is definitive: it drops the dead
//     sources instead of edging to them.
//   - There is no withdraw: a cycle is the decision (Delay or AbortTx), and
//     a failed insert mutates nothing.
//
// One mutex, not a graph striped by component: a striped union-find graph
// still serializes every insert with conflicts and every commit on its
// component map's mutex, and measured slower than one mutex on every mix
// tried, the many-small-components CrossPairs included (DESIGN.md "Native
// SGT and OCC"). The cclint lockorder hierarchy checks that sgtGraph.mu is
// never taken recursively; it nests inside the shard latch.
type sgtGraph struct {
	mu sync.Mutex
	sgtCore
	state []atomic.Int64 // per tx: epoch<<1, |1 when that incarnation retired
}

func newSGTGraph(numTxs int) *sgtGraph {
	g := &sgtGraph{state: make([]atomic.Int64, numTxs)}
	g.init(numTxs)
	return g
}

// reset rewinds the graph for a fresh run over the same transaction count.
// Only safe between runs (Begin), when nothing is being decided.
func (g *sgtGraph) reset() {
	for i := range g.state {
		g.state[i].Store(0)
	}
	g.init(len(g.state))
}

// node returns the transaction's current incarnation.
//
//optcc:hotpath
func (g *sgtGraph) node(tx int) sgtNode {
	return sgtNode{tx: tx, epoch: int(g.state[tx].Load() >> 1)}
}

// alive reports whether n is a live (not aborted, not retired) incarnation.
// Lock-free; definitive under mu (see insert), advisory otherwise (the
// marks compaction path).
//
//optcc:hotpath
func (g *sgtGraph) alive(n sgtNode) bool {
	return g.state[n.tx].Load() == int64(n.epoch)<<1
}

// retire flips the retired bit of tx's current incarnation. Caller holds
// mu.
//
//optcc:hotpath
func (g *sgtGraph) retire(tx int) {
	g.state[tx].Store(g.state[tx].Load() | 1)
}

// insert atomically checks that adding source→me edges keeps the graph
// acyclic and inserts them, reporting whether the grant may proceed. A
// false return mutates nothing — the caller turns it into Delay or AbortTx
// and the sources will be recollected on retry. Sources are the caller's
// lock-free marks snapshot: each is re-validated as live under mu and
// dropped if it retired in the window (exactly what the sequential SGT
// sees — a dropped or aborted incarnation has no recorded steps left).
// Caller runs under the variable's shard latch.
//
//optcc:hotpath
func (g *sgtGraph) insert(me sgtNode, sources []sgtNode) bool {
	if len(sources) == 0 {
		// No conflicting predecessors: no edges, no cycle, no lock.
		return true
	}
	g.mu.Lock()
	src := g.sources(me.tx)
	for _, n := range sources {
		if g.alive(n) {
			g.addSource(n.tx, src)
		}
	}
	ok := g.admit(me.tx, src)
	g.mu.Unlock()
	return ok
}

// commitTx commits the transaction's node and retires every node that
// leaves the graph with it. It takes mu even for an edgeless node:
// otherwise an insert that has just revalidated the node as a live source
// could link to it after it retired.
//
//optcc:hotpath
func (g *sgtGraph) commitTx(tx int) {
	g.mu.Lock()
	for _, u := range g.commit(tx) {
		g.retire(u)
	}
	g.mu.Unlock()
}

// abortTx starts a fresh epoch for the transaction, which retires the dying
// incarnation's marks everywhere, and removes its node, retiring the
// committed nodes that leave with it.
//
//optcc:hotpath
func (g *sgtGraph) abortTx(tx int) {
	g.mu.Lock()
	g.state[tx].Store((g.state[tx].Load()>>1 + 1) << 1)
	for _, u := range g.abort(tx)[1:] {
		g.retire(u)
	}
	g.mu.Unlock()
}
