package online

import (
	"fmt"

	"optcc/internal/conflict"
	"optcc/internal/core"
)

// refSGT is the map-based serialization-graph-testing scheduler that SGT
// replaced, kept verbatim as the differential oracle for SGT's dense
// representation: nodes are (transaction, incarnation) pairs, edges a map
// of sets, and prune a fixpoint sweep over the whole graph.
type refSGT struct {
	base
	sys          *core.System
	AbortOnCycle bool

	epoch     []int
	steps     []refStepRec
	edges     map[refNode]map[refNode]bool
	committed map[refNode]bool
}

// refNode identifies a transaction incarnation in the refSGT graph.
type refNode struct {
	tx, epoch int
}

// refStepRec records one executed step for conflict computation.
type refStepRec struct {
	n    refNode
	step core.Step
}

func (s *refSGT) Name() string {
	if s.AbortOnCycle {
		return "ref-sgt/abort"
	}
	return "ref-sgt/delay"
}

func (s *refSGT) Begin(sys *core.System) {
	s.sys = sys
	s.epoch = make([]int, sys.NumTxs())
	s.steps = nil
	s.edges = map[refNode]map[refNode]bool{}
	s.committed = map[refNode]bool{}
}

func (s *refSGT) addEdge(from, to refNode) {
	if from == to {
		return
	}
	if s.edges[from] == nil {
		s.edges[from] = map[refNode]bool{}
	}
	s.edges[from][to] = true
}

// wouldCycle reports whether target already reaches one of the tentative
// sources, so that adding the edges source→target would close a cycle.
func (s *refSGT) wouldCycle(target refNode, tentative []refNode) bool {
	seen := map[refNode]bool{}
	var stack []refNode
	stack = append(stack, target)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		for v := range s.edges[u] {
			stack = append(stack, v)
		}
	}
	for _, src := range tentative {
		if seen[src] {
			return true
		}
	}
	return false
}

func (s *refSGT) Try(id core.StepID) Decision {
	me := refNode{id.Tx, s.epoch[id.Tx]}
	step := s.sys.Step(id)
	var sources []refNode
	seen := map[refNode]bool{}
	for _, rec := range s.steps {
		if rec.n.tx == id.Tx && rec.n.epoch == s.epoch[id.Tx] {
			continue
		}
		if conflict.Conflicts(rec.step, step) && !seen[rec.n] {
			seen[rec.n] = true
			sources = append(sources, rec.n)
		}
	}
	if s.wouldCycle(me, sources) {
		if s.AbortOnCycle {
			return AbortTx
		}
		return Delay
	}
	for _, src := range sources {
		s.addEdge(src, me)
	}
	s.steps = append(s.steps, refStepRec{n: me, step: step})
	return Grant
}

func (s *refSGT) Commit(tx int) {
	s.committed[refNode{tx, s.epoch[tx]}] = true
	s.prune()
}

func (s *refSGT) Abort(tx int) {
	gone := refNode{tx, s.epoch[tx]}
	s.epoch[tx]++
	delete(s.edges, gone)
	for _, m := range s.edges {
		delete(m, gone)
	}
	kept := s.steps[:0]
	for _, rec := range s.steps {
		if rec.n != gone {
			kept = append(kept, rec)
		}
	}
	s.steps = kept
	s.prune()
}

// prune removes committed incarnations with no incoming edges until none
// is left; removing one may expose another.
func (s *refSGT) prune() {
	for {
		indeg := map[refNode]int{}
		nodes := map[refNode]bool{}
		for _, rec := range s.steps {
			nodes[rec.n] = true
		}
		for from, tos := range s.edges {
			nodes[from] = true
			for to := range tos {
				indeg[to]++
				nodes[to] = true
			}
		}
		removed := false
		for n := range nodes {
			if s.committed[n] && indeg[n] == 0 {
				delete(s.edges, n)
				delete(s.committed, n)
				kept := s.steps[:0]
				for _, rec := range s.steps {
					if rec.n != n {
						kept = append(kept, rec)
					}
				}
				s.steps = kept
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

func (s *refSGT) GraphSize() (nodes, steps int) {
	set := map[refNode]bool{}
	for _, rec := range s.steps {
		set[rec.n] = true
	}
	for from, tos := range s.edges {
		set[from] = true
		for to := range tos {
			set[to] = true
		}
	}
	return len(set), len(s.steps)
}

func (s *refSGT) Victim(stuck []int) (int, bool) {
	if len(stuck) == 0 {
		return 0, false
	}
	best, bestIn := stuck[0], -1
	for _, tx := range stuck {
		me := refNode{tx, s.epoch[tx]}
		in := 0
		for _, tos := range s.edges {
			if tos[me] {
				in++
			}
		}
		if in > bestIn {
			best, bestIn = tx, in
		}
	}
	return best, true
}

func (s *refSGT) String() string {
	nodes, steps := s.GraphSize()
	return fmt.Sprintf("ref-sgt{nodes=%d steps=%d}", nodes, steps)
}
