// Package check is the history oracle every engine test and tool shares.
// Given a transaction system and the committed schedule a run produced
// (sim.Metrics.Output), it verifies the two properties the paper's
// optimality argument rests on:
//
//   - CSR: the schedule lies in the fixpoint class of the schedulers in
//     internal/online — its serialization graph is acyclic;
//   - Replay: the state a backend ended with, live or recovered, equals the
//     serial execution (core.Exec) of the schedule from the system's
//     initial state.
//
// Each returns nil or the first violated property as a *Violation with its
// witness: a cycle in which no transaction repeats (not necessarily the
// shortest) with its conflicting step pairs, or the first differing
// variable. Reads-from equivalence and bench/'s own oracles are not
// covered yet (see DESIGN.md, "The history oracle").
package check

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"optcc/internal/conflict"
	"optcc/internal/core"
)

// Violation is a failed property with its witness.
type Violation struct {
	// Property names what failed: "legal schedule", "CSR", "complete
	// schedule" or "state==replay".
	Property string
	// Cycle holds a CSR violation's transactions (0-based) in edge order,
	// each with an edge to the next and the last to the first; Edges[i] is
	// the pair of conflicting steps, in schedule order, behind the edge
	// leaving Cycle[i].
	Cycle []int
	Edges [][2]core.StepID
	// Var, Got and Want are a state==replay violation's first differing
	// variable in name order, its value in the checked state and in the
	// replay.
	Var       core.Var
	Got, Want core.Value
	// Detail describes a legal- or complete-schedule violation.
	Detail string

	sys *core.System
}

// Error renders the witness; steps read "T<tx>.<idx> <kind>(<var>)", 1-based.
func (v *Violation) Error() string {
	switch v.Property {
	case "CSR":
		var b strings.Builder
		b.WriteString("committed schedule not CSR: cycle")
		for _, tx := range v.Cycle {
			fmt.Fprintf(&b, " T%d →", tx+1)
		}
		fmt.Fprintf(&b, " T%d;", v.Cycle[0]+1)
		sep := " "
		for _, e := range v.Edges {
			a, c := v.sys.Step(e[0]), v.sys.Step(e[1])
			fmt.Fprintf(&b, "%sT%d.%d %s(%s) before T%d.%d %s(%s)", sep,
				e[0].Tx+1, e[0].Idx+1, a.Kind, a.Var, e[1].Tx+1, e[1].Idx+1, c.Kind, c.Var)
			sep = ", "
		}
		return b.String()
	case "state==replay":
		return fmt.Sprintf("state differs from the committed replay: %s = %d, replay %d", v.Var, v.Got, v.Want)
	}
	return v.Property + " violated: " + v.Detail
}

// progress returns how many steps of each transaction h holds, or a
// violation at the first step out of program order.
func progress(sys *core.System, h core.Schedule) ([]int, *Violation) {
	next := make([]int, sys.NumTxs())
	for i, id := range h {
		if id.Tx < 0 || id.Tx >= len(next) || id.Idx != next[id.Tx] || id.Idx >= len(sys.Txs[id.Tx].Steps) {
			return nil, &Violation{Property: "legal schedule",
				Detail: fmt.Sprintf("step %d is T%d.%d, out of program order", i, id.Tx+1, id.Idx+1)}
		}
		next[id.Tx]++
	}
	return next, nil
}

// CSR reports whether the committed schedule out — complete or a legal
// prefix — is conflict-serializable. On a cycle the violation carries its
// transactions and, per edge, the two conflicting steps that made it.
//
// The graph holds, per variable, the edges from the last writer to each
// later access and from the readers since that write to the next writer:
// every conflict edge of conflict.Build is a path of these, so the graph
// is acyclic exactly when Build's is, at a cost linear in the schedule.
func CSR(sys *core.System, out core.Schedule) error {
	if _, v := progress(sys, out); v != nil {
		return v
	}
	g := conflict.NewGraph(sys.NumTxs())
	why := map[[2]int][2]core.StepID{}
	edge := func(a, b core.StepID) {
		if a.Tx != b.Tx && !g.HasEdge(a.Tx, b.Tx) {
			g.AddEdge(a.Tx, b.Tx)
			why[[2]int{a.Tx, b.Tx}] = [2]core.StepID{a, b}
		}
	}
	type access struct {
		writer  *core.StepID
		readers []core.StepID // since the last write
	}
	vars := map[core.Var]*access{}
	for _, id := range out {
		st := sys.Step(id)
		a := vars[st.Var]
		if a == nil {
			a = &access{}
			vars[st.Var] = a
		}
		if a.writer != nil {
			edge(*a.writer, id)
		}
		if !conflict.Writes(st.Kind) {
			a.readers = append(a.readers, id)
			continue
		}
		for _, r := range a.readers {
			edge(r, id)
		}
		a.writer, a.readers = &id, a.readers[:0]
	}
	cycle := g.Cycle()
	if cycle == nil {
		return nil
	}
	v := &Violation{Property: "CSR", Cycle: cycle, sys: sys}
	for i, tx := range cycle {
		v.Edges = append(v.Edges, why[[2]int{tx, cycle[(i+1)%len(cycle)]}])
	}
	return v
}

// Replay reports whether state equals the serial execution of the
// committed schedule out from the system's initial state. Transactions
// the snapshot path served are absent from out: the steps of every
// all-Read transaction with none in out are appended (all-Read, they
// cannot move the state). Any other transaction out does not hold whole —
// a lost writer — is a "complete schedule" violation. Variables absent
// from a state count as zero, as in core.DB.Equal.
func Replay(sys *core.System, out core.Schedule, state core.DB) error {
	held, v := progress(sys, out)
	if v != nil {
		return v
	}
	full := slices.Clip(out)
	for tx, n := range held {
		steps := sys.Txs[tx].Steps
		if n == 0 && !slices.ContainsFunc(steps, func(s core.Step) bool { return s.Kind != core.Read }) {
			for idx := range steps {
				full = append(full, core.StepID{Tx: tx, Idx: idx})
			}
			n = len(steps)
		}
		if n != len(steps) {
			return &Violation{Property: "complete schedule",
				Detail: fmt.Sprintf("T%d has %d of its %d steps in the committed schedule", tx+1, n, len(steps))}
		}
	}
	replay, err := core.Exec(sys, full, sys.InitialStates()[0])
	if err != nil {
		return fmt.Errorf("check: replay: %w", err)
	}
	vars := maps.Clone(state)
	maps.Copy(vars, replay)
	for _, x := range slices.Sorted(maps.Keys(vars)) {
		if state[x] != replay[x] {
			return &Violation{Property: "state==replay", Var: x, Got: state[x], Want: replay[x]}
		}
	}
	return nil
}
