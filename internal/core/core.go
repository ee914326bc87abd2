// Package core implements the transaction-system model of Kung &
// Papadimitriou, "An Optimality Theory of Concurrency Control for Databases"
// (SIGMOD 1979), Section 2.
//
// A transaction system is a finite set of transactions {T1..Tn}. Each
// transaction Ti is a straight-line sequence of steps Ti1..Timi. Step Tij
// executes, indivisibly,
//
//	t_ij ← x_ij;  x_ij ← f_ij(t_i1, ..., t_ij)
//
// where x_ij is a global variable, t_i1..t_imi are the transaction's local
// variables, and f_ij is a function symbol. The n-tuple (m1..mn) is the
// format of the system. Interpretations of the f_ij (the semantics), and the
// integrity constraints IC over the global state, complete the definition.
//
// The package provides the syntactic objects (Var, Step, Transaction,
// System), the operational semantics (State, Exec), schedules (legal
// interleavings) and the correctness predicate behind C(T).
package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Var names a global variable of a transaction system. Variables are
// abstractions of individually accessible data entities (bits, records,
// files); their granularity is irrelevant to the theory.
type Var string

// Value is a concrete domain element. The paper allows any enumerable
// domain; the concrete engine fixes D(v) = int64 for every v, which suffices
// for all workloads studied (the symbolic Herbrand engine in
// internal/herbrand handles the uninterpreted case).
type Value int64

// DB is a global database state G: an assignment of values to variables.
type DB map[Var]Value

// Clone returns an independent copy of the state.
func (d DB) Clone() DB {
	c := make(DB, len(d))
	for v, x := range d {
		c[v] = x
	}
	return c
}

// Equal reports whether two states assign the same value to every variable.
// Variables absent from a map are treated as zero.
func (d DB) Equal(o DB) bool {
	for v, x := range d {
		if o[v] != x {
			return false
		}
	}
	for v, x := range o {
		if d[v] != x {
			return false
		}
	}
	return true
}

// String renders the state deterministically, sorted by variable name.
func (d DB) String() string {
	vars := make([]string, 0, len(d))
	for v := range d {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range vars {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", v, d[Var(v)])
	}
	b.WriteByte('}')
	return b.String()
}

// StepKind classifies a step syntactically. The classification is part of
// the syntax (the paper's "flowchart with the names of the variables
// accessed and updated at each step"): it determines the conflict relation
// and the Herbrand semantics, not the concrete interpretation.
type StepKind int

const (
	// Update is the general step: reads x_ij and rewrites it as a function
	// of everything the transaction has read so far (including this read).
	Update StepKind = iota
	// Read is a step whose f_ij is the identity on t_ij: the write-back is
	// a semantic no-op. Read steps conflict only with writers.
	Read
	// Write is a step whose f_ij is independent of t_ij: the value read is
	// never used. Writers conflict with both readers and writers.
	Write
)

// String returns the conventional one-letter name of the kind.
func (k StepKind) String() string {
	switch k {
	case Update:
		return "U"
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Valid reports whether k is one of the declared kinds.
func (k StepKind) Valid() bool { return k == Update || k == Read || k == Write }

// StepFunc is a concrete interpretation φ_ij of a function symbol f_ij. It
// receives the transaction's local values t_i1..t_ij (the last element is
// the value just read by this step) and returns the new value of x_ij.
type StepFunc func(locals []Value) Value

// Step is one transaction step T_ij.
type Step struct {
	// Var is x_ij, the global variable read and written by the step.
	Var Var
	// Kind is the syntactic classification (Update, Read or Write).
	Kind StepKind
	// Fn is the concrete interpretation of f_ij. It may be nil for Read
	// steps (identity is implied) and for purely syntactic systems that are
	// only executed under Herbrand semantics.
	Fn StepFunc
	// FnName names the function symbol f_ij for the Herbrand universe and
	// for printing. If empty, System.Normalize assigns the canonical name
	// "f<i><j>" (1-based, matching the paper).
	FnName string
}

// Transaction is a straight-line program: a named, ordered list of steps.
type Transaction struct {
	Name  string
	Steps []Step
}

// Len returns m_i, the number of steps.
func (t *Transaction) Len() int { return len(t.Steps) }

// StepID identifies step Idx (0-based) of transaction Tx (0-based) within a
// system. The paper writes T_{Tx+1,Idx+1}.
type StepID struct {
	Tx, Idx int
}

// String renders the identifier in the paper's 1-based notation, e.g. "T12".
func (id StepID) String() string { return fmt.Sprintf("T%d%d", id.Tx+1, id.Idx+1) }

// IC captures the integrity constraints of a system: the predicate that
// defines consistent global states, together with a finite generator of
// representative consistent initial states used to decide schedule
// correctness. The paper quantifies over all consistent states; workloads
// in this repo supply generators that cover the reachable invariant
// manifold (documented per workload).
type IC struct {
	Name string
	// Check reports whether the global state satisfies the constraints.
	Check func(DB) bool
	// Initials enumerates representative consistent initial states.
	Initials func() []DB
}

// TrivialIC accepts every state; its only initial state is the given one
// (System.InitialStates copies it and adds a zero for every variable it
// omits). It models "no integrity constraints" (every schedule is
// correct).
func TrivialIC(init DB) *IC {
	return &IC{
		Name:     "trivial",
		Check:    func(DB) bool { return true },
		Initials: func() []DB { return []DB{init} },
	}
}

// System is a transaction system: transactions plus integrity constraints.
//
// A System is a fixed input, as in the paper: it must not change after its
// first run (or its first Vars, VarIDs, Validate, Executable or
// InitialState call). What depends only on it — the variable set, each
// step's variable number, the two validity verdicts and the first initial
// state — is computed once and shared by every later caller, and the
// natively concurrent schedulers reuse their per-variable tables when
// Begin sees the same System again. A System holds atomics, so it is
// passed by pointer, never copied.
type System struct {
	Name string
	Txs  []Transaction
	// IC holds the integrity constraints. A nil IC behaves like a trivial
	// constraint with a single all-zero initial state.
	IC *IC

	// steps and init memoize the step walk and InitialState; nil until
	// first use.
	steps atomic.Pointer[stepMemo]
	init  atomic.Pointer[initMemo]
}

// initMemo is InitialState's memo: the state, and its values in Vars order
// when the state holds exactly the System's variables (nil otherwise).
type initMemo struct {
	db   DB
	vals []Value
}

// stepMemo is everything one walk over a System's steps computes: the
// sorted variable set, each step's variable number (its index in vars),
// Validate's error and Executable's verdict.
type stepMemo struct {
	vars []Var
	ids  [][]int32
	err  error
	exec bool
}

// Format returns the n-tuple (m1..mn) of transaction lengths.
func (s *System) Format() []int {
	f := make([]int, len(s.Txs))
	for i := range s.Txs {
		f[i] = len(s.Txs[i].Steps)
	}
	return f
}

// NumTxs returns n, the number of transactions.
func (s *System) NumTxs() int { return len(s.Txs) }

// StepCount returns the total number of steps Σ m_i.
func (s *System) StepCount() int {
	n := 0
	for i := range s.Txs {
		n += len(s.Txs[i].Steps)
	}
	return n
}

// Step returns the step named by id.
//
//optcc:hotpath
func (s *System) Step(id StepID) Step { return s.Txs[id.Tx].Steps[id.Idx] }

// Vars returns the sorted set of global variable names used by the system.
// It is computed on the first call and shared by every later one: the
// slice is read-only, and a repeated call allocates nothing. Concurrent
// first calls are safe and agree on one slice.
func (s *System) Vars() []Var { return s.memo().vars }

// VarIDs returns every step's variable number: VarIDs()[i][j] is the
// index in Vars of Txs[i].Steps[j].Var. A per-variable table laid out in
// Vars order finds a step's entry by this index, without hashing the
// name. It is built in the same walk as Vars and shared the same way: the
// slices are read-only, and a repeated call allocates nothing.
func (s *System) VarIDs() [][]int32 { return s.memo().ids }

// memo returns the step memo, walking the steps on the first call.
func (s *System) memo() *stepMemo {
	if p := s.steps.Load(); p != nil {
		return p
	}
	s.steps.CompareAndSwap(nil, s.walkSteps())
	return s.steps.Load()
}

// walkSteps computes the step memo afresh in one walk over the steps:
// each variable is numbered when first seen and the first structural
// error is kept. The variables are then sorted and the numbers renamed to
// sorted positions.
func (s *System) walkSteps() *stepMemo {
	m := &stepMemo{ids: make([][]int32, len(s.Txs)), exec: true}
	if len(s.Txs) == 0 {
		m.err = fmt.Errorf("system %q: no transactions", s.Name)
	}
	type seenVar struct {
		v  Var
		id int32 // first-seen number
	}
	num := map[Var]int32{}
	var seen []seenVar
	slab := make([]int32, s.StepCount())
	for i := range s.Txs {
		steps := s.Txs[i].Steps
		ids := slab[:len(steps):len(steps)]
		slab = slab[len(steps):]
		m.ids[i] = ids
		if len(steps) == 0 && m.err == nil {
			m.err = fmt.Errorf("system %q: transaction %d is empty", s.Name, i+1)
		}
		for j := range steps {
			st := &steps[j]
			id, ok := num[st.Var]
			if !ok {
				id = int32(len(seen))
				num[st.Var] = id
				seen = append(seen, seenVar{st.Var, id})
			}
			ids[j] = id
			if m.err == nil && st.Var == "" {
				m.err = fmt.Errorf("system %q: step T%d%d has no variable", s.Name, i+1, j+1)
			}
			if m.err == nil && !st.Kind.Valid() {
				m.err = fmt.Errorf("system %q: step T%d%d has invalid kind %d", s.Name, i+1, j+1, int(st.Kind))
			}
			if st.Kind != Read && st.Fn == nil {
				m.exec = false
			}
		}
	}
	slices.SortFunc(seen, func(a, b seenVar) int { return strings.Compare(string(a.v), string(b.v)) })
	m.vars = make([]Var, len(seen))
	rank := make([]int32, len(seen))
	for k, sv := range seen {
		m.vars[k] = sv.v
		rank[sv.id] = int32(k)
	}
	for i := range m.ids {
		for j, id := range m.ids[i] {
			m.ids[i][j] = rank[id]
		}
	}
	return m
}

// Readers returns the transactions (indices) containing at least one step
// on v.
func (s *System) Accessors(v Var) []int {
	var out []int
	for i := range s.Txs {
		for j := range s.Txs[i].Steps {
			if s.Txs[i].Steps[j].Var == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Normalize fills in derived fields: canonical function-symbol names for
// steps that lack one, default transaction names, and a trivial IC if none
// is set (its initial state is all-zero: InitialStates adds the zeros). It
// returns the receiver for chaining.
func (s *System) Normalize() *System {
	for i := range s.Txs {
		tx := &s.Txs[i]
		num := strconv.Itoa(i + 1)
		if tx.Name == "" {
			tx.Name = "T" + num
		}
		for j := range tx.Steps {
			if tx.Steps[j].FnName == "" {
				tx.Steps[j].FnName = "f" + num + strconv.Itoa(j+1)
			}
		}
	}
	if s.IC == nil {
		s.IC = TrivialIC(DB{})
	}
	return s
}

// Validate checks structural well-formedness: at least one transaction,
// every transaction non-empty, every step names a variable and a valid
// kind. The verdict is computed in the walk that builds Vars and shared
// by every later call.
func (s *System) Validate() error { return s.memo().err }

// Executable reports whether every step has a concrete interpretation (Read
// steps are always executable: identity is implied). Like Validate, it
// reads the step memo.
func (s *System) Executable() bool { return s.memo().exec }

// String renders the system's syntax, one transaction per line.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system %s format %v\n", s.Name, s.Format())
	for i := range s.Txs {
		fmt.Fprintf(&b, "  %s:", s.Txs[i].Name)
		for j := range s.Txs[i].Steps {
			st := s.Txs[i].Steps[j]
			fmt.Fprintf(&b, " %s(%s:%s)", StepID{i, j}, st.Kind, st.Var)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// InitialStates returns the consistent initial states supplied by the IC.
// Each returned state is an independent copy, owned by the caller,
// extended with zero entries for any system variable the generator
// omitted. A caller that only reads the first state should use
// InitialState, which builds it once per System.
func (s *System) InitialStates() []DB {
	vars := s.Vars()
	if s.IC == nil || s.IC.Initials == nil {
		return []DB{withZeros(nil, vars)}
	}
	gens := s.IC.Initials()
	out := make([]DB, 0, len(gens))
	for _, g := range gens {
		out = append(out, withZeros(g, vars))
	}
	return out
}

// withZeros returns a copy of g with a zero entry for every variable of
// vars that g omits.
func withZeros(g DB, vars []Var) DB {
	c := make(DB, max(len(g), len(vars)))
	for _, v := range vars {
		c[v] = 0
	}
	for v, x := range g {
		c[v] = x
	}
	return c
}

// InitialState returns the first of InitialStates, built on the first call
// and shared by every later one: the run set-up loads it into a backend on
// every run. The state is read-only; a caller that needs to modify one
// takes a copy (Clone, or InitialStates). Concurrent first calls are safe
// and agree on one state.
func (s *System) InitialState() DB { return s.initMemo().db }

// InitialValues returns db's values in Vars order when db is the state
// InitialState shares (the same map, not an equal one) and holds no
// variable outside Vars, and nil otherwise. A store laid out in Vars order
// loads the shared state by number with it, hashing no name. The slice is
// read-only and shared like the state.
func (s *System) InitialValues(db DB) []Value {
	m := s.initMemo()
	if m.vals == nil || reflect.ValueOf(db).UnsafePointer() != reflect.ValueOf(m.db).UnsafePointer() {
		return nil
	}
	return m.vals
}

// initMemo returns the InitialState memo, building it on the first call.
func (s *System) initMemo() *initMemo {
	if p := s.init.Load(); p != nil {
		return p
	}
	m := &initMemo{db: s.InitialStates()[0]}
	if vars := s.Vars(); len(m.db) == len(vars) {
		m.vals = make([]Value, len(vars))
		for i, v := range vars {
			m.vals[i] = m.db[v]
		}
	}
	s.init.CompareAndSwap(nil, m)
	return s.init.Load()
}

// Consistent reports whether the state satisfies the integrity constraints.
func (s *System) Consistent(db DB) bool {
	if s.IC == nil || s.IC.Check == nil {
		return true
	}
	return s.IC.Check(db)
}
