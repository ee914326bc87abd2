package core

import "fmt"

// State is a full state (J, L, G) of a transaction system: per-transaction
// program counters, the declared local variables, and the global database
// state. A State is created over a system and an initial database state and
// advanced one eligible step at a time.
type State struct {
	sys *System
	// PC[i] is j_i − 1 in the paper's 1-based notation: the number of steps
	// of transaction i already executed. PC[i] == m_i means Ti terminated.
	PC []int
	// Locals[i][j] is t_{i,j+1}, defined for j < PC[i].
	Locals [][]Value
	// Global is G, the current database state.
	Global DB
}

// NewState returns the initial state (J = (1..1), no declared locals, G =
// init) for the system. The initial database is cloned; missing variables
// default to zero.
func NewState(sys *System, init DB) *State {
	g := withZeros(init, sys.Vars())
	locals := make([][]Value, len(sys.Txs))
	for i := range sys.Txs {
		locals[i] = make([]Value, 0, len(sys.Txs[i].Steps))
	}
	return &State{
		sys:    sys,
		PC:     make([]int, len(sys.Txs)),
		Locals: locals,
		Global: g,
	}
}

// System returns the system the state belongs to.
func (st *State) System() *System { return st.sys }

// Eligible reports whether step id is the next step of its transaction,
// i.e. executable in the current state.
func (st *State) Eligible(id StepID) bool {
	return id.Tx >= 0 && id.Tx < len(st.sys.Txs) &&
		id.Idx == st.PC[id.Tx] && id.Idx < len(st.sys.Txs[id.Tx].Steps)
}

// Done reports whether every transaction has terminated.
func (st *State) Done() bool {
	for i, pc := range st.PC {
		if pc < len(st.sys.Txs[i].Steps) {
			return false
		}
	}
	return true
}

// Apply executes step id:
//
//	j_i ← j_i + 1;  t_ij ← x_ij;  x_ij ← φ_ij(t_i1..t_ij)
//
// It returns an error if the step is not eligible or lacks an
// interpretation.
func (st *State) Apply(id StepID) error {
	if !st.Eligible(id) {
		return fmt.Errorf("step %v not eligible (pc=%v)", id, st.PC)
	}
	step := st.sys.Step(id)
	read := st.Global[step.Var]
	st.Locals[id.Tx] = append(st.Locals[id.Tx], read)
	st.PC[id.Tx]++
	switch step.Kind {
	case Read:
		// Write-back is the identity on t_ij: the global state is
		// unchanged.
	default:
		if step.Fn == nil {
			return fmt.Errorf("step %v has no interpretation", id)
		}
		st.Global[step.Var] = step.Fn(st.Locals[id.Tx])
	}
	return nil
}

// Clone returns an independent deep copy of the state.
func (st *State) Clone() *State {
	pc := make([]int, len(st.PC))
	copy(pc, st.PC)
	locals := make([][]Value, len(st.Locals))
	for i := range st.Locals {
		locals[i] = append([]Value(nil), st.Locals[i]...)
	}
	return &State{sys: st.sys, PC: pc, Locals: locals, Global: st.Global.Clone()}
}

// Exec executes the schedule from the initial database state and returns
// the final database state. The schedule must be legal and complete for the
// system.
func Exec(sys *System, h Schedule, init DB) (DB, error) {
	st := NewState(sys, init)
	for _, id := range h {
		if err := st.Apply(id); err != nil {
			return nil, fmt.Errorf("exec %v: %w", h, err)
		}
	}
	if !st.Done() {
		return nil, fmt.Errorf("exec: schedule %v incomplete for format %v", h, sys.Format())
	}
	return st.Global, nil
}

// ExecPrefix executes a legal prefix of a schedule (not necessarily
// complete) and returns the resulting state.
func ExecPrefix(sys *System, h Schedule, init DB) (*State, error) {
	st := NewState(sys, init)
	for _, id := range h {
		if err := st.Apply(id); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ExecSerialOrder executes the transactions serially in the given order
// (indices into sys.Txs, possibly with repetitions or omissions, as in the
// paper's weak-serializability definition) and returns the final state.
func ExecSerialOrder(sys *System, order []int, init DB) (DB, error) {
	g := withZeros(init, sys.Vars())
	for _, ti := range order {
		if ti < 0 || ti >= len(sys.Txs) {
			return nil, fmt.Errorf("serial order references transaction %d of %d", ti, len(sys.Txs))
		}
		locals := make([]Value, 0, len(sys.Txs[ti].Steps))
		for j := range sys.Txs[ti].Steps {
			step := sys.Txs[ti].Steps[j]
			locals = append(locals, g[step.Var])
			if step.Kind == Read {
				continue
			}
			if step.Fn == nil {
				return nil, fmt.Errorf("step %v has no interpretation", StepID{ti, j})
			}
			g[step.Var] = step.Fn(locals)
		}
	}
	return g, nil
}
