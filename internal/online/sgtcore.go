package online

// sgtCore is the dense serialization graph shared by the sequential SGT and
// ConcurrentSGT's sgtGraph. A node is a transaction index: the caller
// guarantees that at most one incarnation of a transaction is in the graph,
// by removing the dying incarnation with abort before the transaction runs
// again. Edges are per-transaction out/in lists and every scratch set is a
// stamp on the nodes, so no operation touches a map and, once the lists
// have grown, none allocates. sgtCore does no locking of its own.
type sgtCore struct {
	txs []sgtTx
	// spare holds emptied edge lists whose backing arrays the next nodes
	// reuse.
	spare [][]sgtEdge

	// sources stamps a source set with an even stamp and reaches marks its
	// DFS's visited set with the odd one after it.
	stamp       uint64
	srcs, stack []int
}

// sgtTx is one transaction's node, one cache line.
type sgtTx struct {
	// out and in are the conflict edges in both directions. They are sets:
	// addSource skips sources that are already predecessors.
	out, in []sgtEdge
	mark    uint64
	// held is SGT's count of the transaction's granted steps still filed
	// under their variables; 0 means the transaction is not in SGT's graph.
	// ConcurrentSGT keeps its steps in marks and leaves it 0.
	held      int32
	committed bool
}

// sgtEdge is one end of an edge: the transaction at the other end and the
// index of the mirror entry in that transaction's opposite list, so either
// end is unlinked in constant time.
type sgtEdge struct {
	tx, at int32
}

// init empties the graph for n transactions. It keeps the node slice when
// its length fits and moves leftover edge lists to the spare pool, so
// re-beginning a run over the same system allocates nothing.
func (c *sgtCore) init(n int) {
	if len(c.txs) != n {
		c.txs = make([]sgtTx, n)
	}
	for i := range c.txs {
		c.recycle(c.txs[i].out)
		c.recycle(c.txs[i].in)
		c.txs[i] = sgtTx{}
	}
	c.stamp = 0
}

// sources starts me's source set: it draws a fresh stamp, stamps me's
// existing predecessors with it and empties srcs. Those predecessors are
// never sources: their edge is already in, and since the graph is acyclic
// me cannot reach them.
//
//optcc:hotpath
func (c *sgtCore) sources(me int) uint64 {
	c.stamp += 2
	for _, e := range c.txs[me].in {
		c.txs[e.tx].mark = c.stamp
	}
	c.srcs = c.srcs[:0]
	return c.stamp
}

// addSource adds t to the source set stamped src unless it is in it already
// or is a predecessor.
//
//optcc:hotpath
func (c *sgtCore) addSource(t int, src uint64) {
	if c.txs[t].mark != src {
		c.txs[t].mark = src
		//cclint:ignore hotpath amortized append into the reused source scratch
		c.srcs = append(c.srcs, t)
	}
}

// admit links every source to me and reports true, unless me already
// reaches a source: that edge would close a cycle, and admit then reports
// false and changes nothing.
//
//optcc:hotpath
func (c *sgtCore) admit(me int, src uint64) bool {
	if len(c.srcs) > 0 && c.reaches(me, src) {
		return false
	}
	for _, p := range c.srcs {
		c.link(p, me)
	}
	return true
}

// reaches reports whether a DFS from me over out-edges meets a node
// stamped src, stopping at the first one.
//
//optcc:hotpath
func (c *sgtCore) reaches(me int, src uint64) bool {
	seen := src + 1
	c.txs[me].mark = seen
	//cclint:ignore hotpath amortized append into the reused DFS stack
	stack := append(c.stack[:0], me)
	found := false
	for len(stack) > 0 && !found {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range c.txs[u].out {
			if n := &c.txs[e.tx]; n.mark == src {
				found = true
				break
			} else if n.mark != seen {
				n.mark = seen
				//cclint:ignore hotpath amortized append into the reused DFS stack
				stack = append(stack, int(e.tx))
			}
		}
	}
	c.stack = stack
	return found
}

// link adds the edge p → me.
//
//optcc:hotpath
func (c *sgtCore) link(p, me int) {
	from, to := &c.txs[p], &c.txs[me]
	i, j := int32(len(from.out)), int32(len(to.in))
	from.out = c.push(from.out, sgtEdge{tx: int32(me), at: j})
	to.in = c.push(to.in, sgtEdge{tx: int32(p), at: i})
}

// unlinkIn deletes entry j of tx's in-list, moving the last entry into its
// place and repointing that entry's mirror.
//
//optcc:hotpath
func (c *sgtCore) unlinkIn(tx int, j int32) {
	l := c.txs[tx].in
	last := int32(len(l) - 1)
	if j != last {
		m := l[last]
		l[j] = m
		c.txs[m.tx].out[m.at].at = j
	}
	c.txs[tx].in = l[:last]
}

// unlinkOut is unlinkIn for tx's out-list.
//
//optcc:hotpath
func (c *sgtCore) unlinkOut(tx int, i int32) {
	l := c.txs[tx].out
	last := int32(len(l) - 1)
	if i != last {
		m := l[last]
		l[i] = m
		c.txs[m.tx].in[m.at].at = i
	}
	c.txs[tx].out = l[:last]
}

// commit marks tx committed and returns the nodes that leave the graph:
// none while tx has a predecessor, else tx and its cascade (see drop). A
// committed node with no predecessor can never join a future cycle, since
// new edges only leave committed nodes. The result aliases scratch that the
// next graph operation reuses.
//
//optcc:hotpath
func (c *sgtCore) commit(tx int) []int {
	c.txs[tx].committed = true
	if len(c.txs[tx].in) > 0 {
		return nil
	}
	return c.drop(tx)
}

// abort unlinks tx from its predecessors and drops it. It returns the nodes
// that left the graph, tx first, aliasing scratch like commit's.
//
//optcc:hotpath
func (c *sgtCore) abort(tx int) []int {
	n := &c.txs[tx]
	for _, e := range n.in {
		c.unlinkOut(int(e.tx), e.at)
	}
	n.in = c.recycle(n.in)
	return c.drop(tx)
}

// drop removes a node whose in-list is empty — its out-edges and their
// mirrors — and cascades to every committed successor whose in-list
// empties, returning the removed nodes in removal order. Because no
// committed node without a predecessor survives a commit or abort, and
// admit only adds edges, this leaves the graph the fixpoint sweep "remove
// committed zero-in-degree nodes until none is left" would.
//
//optcc:hotpath
func (c *sgtCore) drop(tx int) []int {
	//cclint:ignore hotpath amortized append into the reused stack scratch
	gone := append(c.stack[:0], tx)
	for i := 0; i < len(gone); i++ {
		n := &c.txs[gone[i]]
		for _, e := range n.out {
			v := int(e.tx)
			c.unlinkIn(v, e.at)
			if len(c.txs[v].in) == 0 && c.txs[v].committed {
				//cclint:ignore hotpath amortized append into the reused stack scratch
				gone = append(gone, v)
			}
		}
		n.out = c.recycle(n.out)
		n.in = c.recycle(n.in)
		n.committed = false
	}
	c.stack = gone
	return gone
}

// victim returns the stuck transaction with the most predecessors (most
// constrained), the first such in stuck order.
func (c *sgtCore) victim(stuck []int) (int, bool) {
	if len(stuck) == 0 {
		return 0, false
	}
	best, bestIn := stuck[0], -1
	for _, tx := range stuck {
		if in := len(c.txs[tx].in); in > bestIn {
			best, bestIn = tx, in
		}
	}
	return best, true
}

// push appends e to an edge list, giving a list that has no backing array
// a spare one.
//
//optcc:hotpath
func (c *sgtCore) push(l []sgtEdge, e sgtEdge) []sgtEdge {
	if l == nil && len(c.spare) > 0 {
		l = c.spare[len(c.spare)-1]
		c.spare = c.spare[:len(c.spare)-1]
	}
	//cclint:ignore hotpath amortized append: edge lists are recycled through spare
	return append(l, e)
}

// recycle keeps an edge list's backing array for reuse and returns the
// empty list.
//
//optcc:hotpath
func (c *sgtCore) recycle(l []sgtEdge) []sgtEdge {
	if cap(l) > 0 {
		//cclint:ignore hotpath amortized append: spare holds at most one list per node ever built
		c.spare = append(c.spare, l[:0])
	}
	return nil
}
