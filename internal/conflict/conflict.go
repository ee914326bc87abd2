// Package conflict implements the syntactic conflict relation between
// transaction steps, serialization (conflict) graphs, and the
// conflict-serializability (CSR) test.
//
// Two steps conflict when they access the same variable, belong to
// different transactions, and at least one of them writes (kind Update or
// Write; Read steps are pure readers). A schedule is conflict-serializable
// iff its serialization graph is acyclic; CSR is a sufficient, efficiently
// checkable condition for the paper's SR (Herbrand serializability), and it
// is the fixpoint set realized by the SGT online scheduler in
// internal/online.
package conflict

import (
	"fmt"
	"slices"

	"optcc/internal/core"
)

// Writes reports whether a step of the given kind writes its variable.
//
//optcc:hotpath
func Writes(k core.StepKind) bool { return k == core.Update || k == core.Write }

// Reads reports whether a step of the given kind reads its variable (in
// the sense of using the value: Write steps ignore what they read).
//
//optcc:hotpath
func Reads(k core.StepKind) bool { return k == core.Update || k == core.Read }

// Conflicts reports whether two steps of different transactions conflict:
// same variable and not both pure readers. Steps of the same transaction
// are ordered by the program, not by the conflict relation, and never
// "conflict" here.
func Conflicts(a, b core.Step) bool {
	if a.Var != b.Var {
		return false
	}
	return Writes(a.Kind) || Writes(b.Kind)
}

// StepsConflict looks both steps up in the system and applies Conflicts,
// additionally requiring distinct transactions.
func StepsConflict(sys *core.System, a, b core.StepID) bool {
	if a.Tx == b.Tx {
		return false
	}
	return Conflicts(sys.Step(a), sys.Step(b))
}

// Graph is a serialization graph: node i is transaction i; an edge i→j
// records that some step of Ti precedes and conflicts with a step of Tj.
type Graph struct {
	n   int
	adj [][]bool
}

// NewGraph returns an empty graph on n transactions.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the edge i→j (self-loops are ignored).
func (g *Graph) AddEdge(i, j int) {
	if i != j {
		g.adj[i][j] = true
	}
}

// HasEdge reports whether i→j is present.
func (g *Graph) HasEdge(i, j int) bool { return g.adj[i][j] }

// Edges returns the edge list in (from, to) lexicographic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj[i][j] {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Graph) HasCycle() bool {
	_, ok := g.TopoOrder()
	return !ok
}

// Cycle returns the nodes of one directed cycle in edge order — each node
// has an edge to the next, the last to the first — or nil if the graph is
// acyclic. No node repeats. The depth-first search starts from the
// smallest index and tries successors in index order, so the cycle is
// deterministic.
func (g *Graph) Cycle() []int {
	state := make([]byte, g.n) // 0 unseen, 1 on the DFS stack, 2 done
	var stack []int
	var walk func(i int) []int
	walk = func(i int) []int {
		state[i] = 1
		stack = append(stack, i)
		for j := 0; j < g.n; j++ {
			if !g.adj[i][j] || state[j] == 2 {
				continue
			}
			if state[j] == 1 {
				return slices.Clone(stack[slices.Index(stack, j):])
			}
			if c := walk(j); c != nil {
				return c
			}
		}
		stack, state[i] = stack[:len(stack)-1], 2
		return nil
	}
	for i := 0; i < g.n; i++ {
		if state[i] == 0 {
			if c := walk(i); c != nil {
				return c
			}
		}
	}
	return nil
}

// TopoOrder returns a topological order of the nodes and true, or nil and
// false if the graph is cyclic. Ties are broken by smallest index, so the
// order is deterministic.
func (g *Graph) TopoOrder() ([]int, bool) {
	indeg := make([]int, g.n)
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj[i][j] {
				indeg[j]++
			}
		}
	}
	var order []int
	used := make([]bool, g.n)
	for len(order) < g.n {
		found := -1
		for i := 0; i < g.n; i++ {
			if !used[i] && indeg[i] == 0 {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		used[found] = true
		order = append(order, found)
		for j := 0; j < g.n; j++ {
			if g.adj[found][j] {
				indeg[j]--
			}
		}
	}
	return order, true
}

// Build constructs the serialization graph of a legal schedule (or legal
// prefix) of the system.
func Build(sys *core.System, h core.Schedule) (*Graph, error) {
	if !h.LegalPrefix(sys.Format()) {
		return nil, fmt.Errorf("conflict: %v is not a legal prefix of format %v", h, sys.Format())
	}
	g := NewGraph(sys.NumTxs())
	for a := 0; a < len(h); a++ {
		sa := sys.Step(h[a])
		for b := a + 1; b < len(h); b++ {
			if h[a].Tx == h[b].Tx {
				continue
			}
			if Conflicts(sa, sys.Step(h[b])) {
				g.AddEdge(h[a].Tx, h[b].Tx)
			}
		}
	}
	return g, nil
}

// Serializable reports whether the schedule is conflict-serializable and,
// if so, returns a witnessing serial transaction order (a topological order
// of the serialization graph).
func Serializable(sys *core.System, h core.Schedule) (bool, []int, error) {
	g, err := Build(sys, h)
	if err != nil {
		return false, nil, err
	}
	order, ok := g.TopoOrder()
	if !ok {
		return false, nil, nil
	}
	return true, order, nil
}

// Equivalent reports conflict equivalence: the two schedules order every
// pair of conflicting steps identically. Conflict-equivalent schedules have
// identical Herbrand execution results.
func Equivalent(sys *core.System, h1, h2 core.Schedule) (bool, error) {
	format := sys.Format()
	if !h1.Legal(format) || !h2.Legal(format) {
		return false, fmt.Errorf("conflict: schedules must be legal and complete")
	}
	pos := map[core.StepID]int{}
	for i, id := range h2 {
		pos[id] = i
	}
	for a := 0; a < len(h1); a++ {
		for b := a + 1; b < len(h1); b++ {
			if h1[a].Tx == h1[b].Tx {
				continue
			}
			if Conflicts(sys.Step(h1[a]), sys.Step(h1[b])) && pos[h1[a]] > pos[h1[b]] {
				return false, nil
			}
		}
	}
	return true, nil
}

// PrefixClosed reports whether every prefix of h is conflict-serializable.
// Because the serialization graph of a prefix is a subgraph of the full
// graph, this is equivalent to h itself being CSR; the function exists to
// document and test that monotonicity (it is what makes the SGT fixpoint
// exactly the CSR set).
func PrefixClosed(sys *core.System, h core.Schedule) (bool, error) {
	for k := 0; k <= len(h); k++ {
		g, err := Build(sys, h[:k])
		if err != nil {
			return false, err
		}
		if g.HasCycle() {
			return false, nil
		}
	}
	return true, nil
}
