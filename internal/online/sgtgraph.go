package online

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// sgtNode identifies a transaction incarnation in the serialization graph.
type sgtNode struct {
	tx, epoch int
}

// sgtGraph is the striped serialization graph behind ConcurrentSGT, and
// the only owner of the component machinery in this package:
//
//   - The graph is partitioned into per-component subgraphs. A union-find
//     component map (under compMu, whose critical sections are a few
//     pointer chases) tracks which nodes can possibly be connected;
//     subgraphs are keyed by component root and owned by the stripe the
//     root hashes to, each stripe behind its own mutex.
//   - An insert locks only the stripes owning the components it touches.
//     If no source shares the requester's component, no path back to any
//     source can exist — components are unioned before the edges become
//     visible, so connectivity in the edge graph is always a subset of the
//     component relation — and the edges go in with no cycle check;
//     inserts on disjoint components proceed in parallel on different
//     stripes. Only a same-component source forces the exact DFS, which
//     runs inside that one component's subgraph under its single stripe.
//   - The DFS and the prune sweep reuse per-stripe scratch (visited-stamp
//     map, stack, in-degree map) instead of allocating per call.
//   - Incarnation liveness lives inside the graph. state[tx] packs the
//     transaction's current epoch and a retired bit (2e = epoch e live,
//     2e+1 = retired): the per-variable mark lists ConcurrentSGT keeps are
//     append-only and compacted lazily, so a lock-free marks read can
//     surface a node that was committed and pruned, or aborted, a moment
//     ago. insert re-validates every source's liveness under the stripe
//     locks — pruning a node requires its component root's stripe, which
//     insert holds, so a source seen live under the locks stays live until
//     they are released — and drops dead sources instead of edging to them.
//   - There is no withdraw: a cycle is the decision (Delay or AbortTx),
//     and a failed insert mutates nothing.
//   - Retirement is published under the stripe lock. prune flips the
//     retired bit of every node it removes while still holding the
//     component's stripe, so marks readers can never resurrect a pruned
//     incarnation.
//
// Locking protocol (deadlock-free by construction; the cclint lockorder
// hierarchy checks it — sgtStripe.mu rank 10, sgtGraph.compMu rank 20):
//
//   - stripe mutexes are always acquired in ascending index order;
//   - compMu nests strictly inside stripe mutexes (it is never held while
//     acquiring one);
//   - a component root can only be absorbed into another component by a
//     thread holding the root's stripe mutex, so once a thread holds the
//     stripes covering its roots (validated under compMu), those roots —
//     and their subgraphs — are stable until it unlocks.
//
// Union-find entries are never deleted during a run: a retired node may
// live on as a pure component label (splitting the map could break the
// connectivity invariant), bounded by the run's incarnation count.
type sgtGraph struct {
	stripes []sgtStripe
	state   []atomic.Int64 // per tx: epoch<<1, |1 when that incarnation retired

	compMu sync.Mutex
	parent map[sgtNode]sgtNode // union-find; missing entry = self root
}

// sgtStripe owns the subgraphs of the components whose roots hash to it,
// plus the reusable scratch its DFS and prune sweeps run on.
type sgtStripe struct {
	mu   sync.Mutex
	subs map[sgtNode]*sgtSub

	visited map[sgtNode]int // DFS visited-stamp scratch
	stamp   int
	stack   []sgtNode
	indeg   map[sgtNode]int // prune scratch
}

// sgtSub is one component's subgraph: its edges and committed nodes.
type sgtSub struct {
	edges     map[sgtNode]map[sgtNode]bool
	committed map[sgtNode]bool
}

func newSGTGraph(stripes, numTxs int) *sgtGraph {
	if stripes < 1 {
		stripes = 1
	}
	g := &sgtGraph{
		stripes: make([]sgtStripe, stripes),
		state:   make([]atomic.Int64, numTxs),
		parent:  map[sgtNode]sgtNode{},
	}
	for i := range g.stripes {
		g.stripes[i].subs = map[sgtNode]*sgtSub{}
		g.stripes[i].visited = map[sgtNode]int{}
		g.stripes[i].indeg = map[sgtNode]int{}
	}
	return g
}

// reset rewinds the graph for a fresh run over the same transaction count,
// keeping the per-stripe scratch maps.
func (g *sgtGraph) reset() {
	for i := range g.state {
		g.state[i].Store(0)
	}
	clear(g.parent)
	for i := range g.stripes {
		clear(g.stripes[i].subs)
	}
}

// node returns the transaction's current incarnation.
//
//optcc:hotpath
func (g *sgtGraph) node(tx int) sgtNode {
	return sgtNode{tx: tx, epoch: int(g.state[tx].Load() >> 1)}
}

// alive reports whether n is a live (not aborted, not pruned) incarnation.
// Lock-free; definitive only while n's component stripe is held (see
// insert), advisory otherwise (the marks compaction path).
//
//optcc:hotpath
func (g *sgtGraph) alive(n sgtNode) bool {
	return g.state[n.tx].Load() == int64(n.epoch)<<1
}

// stripeOf maps a component root to the stripe owning its subgraph.
func (g *sgtGraph) stripeOf(n sgtNode) int {
	h := uint32(n.tx)*2654435761 ^ uint32(n.epoch)*40503
	return int(h % uint32(len(g.stripes)))
}

// find returns n's component root with path compression. Caller holds
// compMu.
func (g *sgtGraph) find(n sgtNode) sgtNode {
	root := n
	for {
		p, ok := g.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	for n != root {
		p := g.parent[n]
		g.parent[n] = root
		n = p
	}
	return root
}

// lockComp locks the stripe owning n's component and returns the current
// root and stripe index. It retries when a concurrent union moves the root
// to another stripe between the lookup and the lock; every retry consumes
// a union, so the loop terminates. Caller unlocks stripes[stripe].mu.
func (g *sgtGraph) lockComp(n sgtNode) (root sgtNode, stripe int) {
	for {
		g.compMu.Lock()
		root = g.find(n)
		g.compMu.Unlock()
		stripe = g.stripeOf(root)
		g.stripes[stripe].mu.Lock()
		g.compMu.Lock()
		root = g.find(n)
		ok := g.stripeOf(root) == stripe
		g.compMu.Unlock()
		if ok {
			return root, stripe
		}
		g.stripes[stripe].mu.Unlock()
	}
}

// insert atomically checks that adding source→me edges keeps the graph
// acyclic and inserts them, reporting whether the grant may proceed. A
// false return mutates nothing — the caller turns it into Delay or
// AbortTx and the sources will be recollected on retry. Sources are the
// caller's lock-free marks snapshot: each is re-validated as live under
// the stripe locks and silently dropped if it retired in the window
// (exactly what the sequential SGT sees — a pruned or aborted incarnation
// has no recorded steps left). Caller runs under the variable's shard
// latch and holds no graph lock.
func (g *sgtGraph) insert(me sgtNode, sources []sgtNode) bool {
	if len(sources) == 0 {
		// No conflicting predecessors: no edges, no cycle, no locks.
		return true
	}
	var lockBuf [8]int
	for attempt := 0; ; attempt++ {
		// Snapshot the stripes covering every involved component root.
		locked := lockBuf[:0]
		if attempt >= 2 {
			// Concurrent unions moved a root out of our snapshot twice:
			// escalate to every stripe, which cannot fail validation.
			for i := range g.stripes {
				locked = append(locked, i)
			}
		} else {
			g.compMu.Lock()
			locked = append(locked, g.stripeOf(g.find(me)))
			for _, src := range sources {
				if s := g.stripeOf(g.find(src)); !slices.Contains(locked, s) {
					locked = append(locked, s)
				}
			}
			g.compMu.Unlock()
			sort.Ints(locked)
		}
		for _, s := range locked {
			g.stripes[s].mu.Lock()
		}
		// Re-resolve the roots under the locks; if they all still live on
		// locked stripes they are pinned until we unlock — and so is each
		// source's liveness, because retiring a node takes its component
		// root's stripe.
		g.compMu.Lock()
		meRoot := g.find(me)
		valid := slices.Contains(locked, g.stripeOf(meRoot))
		var live, srcRoots []sgtNode
		sameComp := false
		if valid {
			for _, src := range sources {
				root := g.find(src)
				if !slices.Contains(locked, g.stripeOf(root)) {
					valid = false
					break
				}
				if !g.alive(src) {
					continue // retired between the marks read and the locks
				}
				live = append(live, src)
				if root == meRoot {
					sameComp = true
				} else if !slices.Contains(srcRoots, root) {
					srcRoots = append(srcRoots, root)
				}
			}
		}
		if !valid {
			g.compMu.Unlock()
			for _, s := range locked {
				g.stripes[s].mu.Unlock()
			}
			continue
		}
		g.compMu.Unlock()
		if len(live) == 0 {
			for _, s := range locked {
				g.stripes[s].mu.Unlock()
			}
			return true
		}

		meStripe := g.stripeOf(meRoot)
		st := &g.stripes[meStripe]
		sub := st.subs[meRoot]
		if sameComp && sub != nil {
			// Exact check, scoped to me's component: a new edge src→me
			// closes a cycle iff me already reaches src. Sources in
			// foreign components cannot be reached — a path would have
			// unioned them — so only same-component sources lacking their
			// edge are targets.
			st.stack = st.stack[:0]
			for _, src := range live {
				if src == meRoot || g.sameRoot(src, meRoot) {
					if !sub.edges[src][me] {
						st.stack = append(st.stack, src)
					}
				}
			}
			targets := st.stack
			if st.reaches(sub, me, targets) {
				for _, s := range locked {
					g.stripes[s].mu.Unlock()
				}
				return false
			}
		}
		// Merge foreign components into me's (union before the edges become
		// visible, keeping connectivity ⊆ component relation), then insert.
		if len(srcRoots) > 0 {
			g.compMu.Lock()
			for _, root := range srcRoots {
				g.parent[root] = meRoot
			}
			g.compMu.Unlock()
		}
		if sub == nil {
			sub = &sgtSub{edges: map[sgtNode]map[sgtNode]bool{}, committed: map[sgtNode]bool{}}
			st.subs[meRoot] = sub
		}
		for _, root := range srcRoots {
			os := &g.stripes[g.stripeOf(root)]
			if other := os.subs[root]; other != nil {
				for from, tos := range other.edges {
					if cur := sub.edges[from]; cur == nil {
						sub.edges[from] = tos
					} else {
						for to := range tos {
							cur[to] = true
						}
					}
				}
				for n := range other.committed {
					sub.committed[n] = true
				}
				delete(os.subs, root)
			}
		}
		for _, src := range live {
			m := sub.edges[src]
			if m == nil {
				m = map[sgtNode]bool{}
				sub.edges[src] = m
			}
			m[me] = true
		}
		for _, s := range locked {
			g.stripes[s].mu.Unlock()
		}
		return true
	}
}

// sameRoot reports whether n's component root is root. Called with the
// root's stripe held, so the answer is stable.
func (g *sgtGraph) sameRoot(n, root sgtNode) bool {
	g.compMu.Lock()
	same := g.find(n) == root
	g.compMu.Unlock()
	return same
}

// reaches reports whether any node in targets is reachable from start in
// sub. It reuses the stripe's visited-stamp scratch: no allocation on the
// steady-state path. Caller holds the stripe's mutex; targets aliases the
// stripe's stack scratch, so the walk uses a local continuation index
// rather than the shared stack slice.
func (st *sgtStripe) reaches(sub *sgtSub, start sgtNode, targets []sgtNode) bool {
	if len(targets) == 0 {
		return false
	}
	st.stamp++
	if len(st.visited) > 4096 {
		// Bound scratch growth across long runs; stamps make stale entries
		// harmless, this only caps memory.
		st.visited = make(map[sgtNode]int)
	}
	head := len(targets) // frontier lives after the targets in st.stack
	st.stack = append(st.stack, start)
	for len(st.stack) > head {
		u := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if st.visited[u] == st.stamp {
			continue
		}
		st.visited[u] = st.stamp
		for _, t := range st.stack[:head] {
			if u == t {
				return true
			}
		}
		for v := range sub.edges[u] {
			st.stack = append(st.stack, v)
		}
	}
	return false
}

// commitTx marks the transaction's current incarnation committed and
// prunes its component. An edgeless singleton retires immediately.
func (g *sgtGraph) commitTx(tx int) {
	me := g.node(tx)
	root, stripe := g.lockComp(me)
	st := &g.stripes[stripe]
	sub := st.subs[root]
	if sub == nil {
		// Edgeless singleton: retires immediately.
		g.state[tx].Store(int64(me.epoch)<<1 | 1)
	} else {
		sub.committed[me] = true
		g.prune(st, sub)
		if len(sub.edges) == 0 && len(sub.committed) == 0 {
			delete(st.subs, root)
		}
	}
	st.mu.Unlock()
}

// abortTx drops the incarnation's node from its component, starts a fresh
// epoch (which retires the incarnation's marks everywhere, atomically with
// the node leaving the graph), and prunes.
func (g *sgtGraph) abortTx(tx int) {
	gone := g.node(tx)
	root, stripe := g.lockComp(gone)
	g.state[tx].Store(int64(gone.epoch+1) << 1)
	st := &g.stripes[stripe]
	if sub := st.subs[root]; sub != nil {
		delete(sub.edges, gone)
		for src, m := range sub.edges {
			if m[gone] {
				delete(m, gone)
				if len(m) == 0 {
					delete(sub.edges, src)
				}
			}
		}
		delete(sub.committed, gone)
		g.prune(st, sub)
		if len(sub.edges) == 0 && len(sub.committed) == 0 {
			delete(st.subs, root)
		}
	}
	st.mu.Unlock()
}

// prune removes committed nodes with no incoming edges from sub and flips
// their retired bit while the component's stripe is still held: edges only
// ever point from earlier grants to later ones, so such a node can never
// rejoin a cycle, and publishing retirement under the lock means a marks
// reader that revalidates under this stripe can never see a pruned node as
// live. The sweep is scoped to one component — a removal can only unblock
// successors inside the same subgraph. Reuses the stripe's in-degree
// scratch; caller holds the stripe's mutex.
func (g *sgtGraph) prune(st *sgtStripe, sub *sgtSub) {
	for {
		clear(st.indeg)
		for _, tos := range sub.edges {
			for to := range tos {
				st.indeg[to]++
			}
		}
		progress := false
		for n := range sub.committed {
			if st.indeg[n] == 0 {
				delete(sub.edges, n)
				delete(sub.committed, n)
				g.state[n.tx].Store(int64(n.epoch)<<1 | 1)
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// indegree counts the live in-edges of the transaction's current
// incarnation — every in-edge lives in me's own component's subgraph, so
// one stripe lock covers the count. Victim selection uses it to match the
// sequential SGT's most-constrained heuristic.
func (g *sgtGraph) indegree(tx int) int {
	me := g.node(tx)
	root, stripe := g.lockComp(me)
	st := &g.stripes[stripe]
	in := 0
	if sub := st.subs[root]; sub != nil {
		for _, tos := range sub.edges {
			if tos[me] {
				in++
			}
		}
	}
	st.mu.Unlock()
	return in
}
