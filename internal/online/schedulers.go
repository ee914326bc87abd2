package online

import (
	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// base provides default no-op Scheduler methods.
type base struct{}

func (base) Victim([]int) (int, bool) { return 0, false }
func (base) Wounded() []int           { return nil }

// Serial admits one transaction at a time: the optimal scheduler for
// minimum information (Theorem 2). Its fixpoint set is exactly the serial
// schedules.
type Serial struct {
	base
	open      int
	openSteps int
	format    []int
}

// NewSerial returns a serial scheduler.
func NewSerial() *Serial { return &Serial{} }

// Name implements Scheduler.
func (s *Serial) Name() string { return "serial" }

// Begin implements Scheduler.
func (s *Serial) Begin(sys *core.System) {
	s.open = -1
	s.openSteps = 0
	s.format = sys.Format()
}

// Try implements Scheduler.
func (s *Serial) Try(id core.StepID) Decision {
	if s.open != -1 && s.open != id.Tx {
		return Delay
	}
	s.open = id.Tx
	s.openSteps++
	return Grant
}

// Commit implements Scheduler.
func (s *Serial) Commit(tx int) {
	if s.open == tx {
		s.open = -1
		s.openSteps = 0
	}
}

// Abort implements Scheduler.
func (s *Serial) Abort(tx int) {
	if s.open == tx {
		s.open = -1
		s.openSteps = 0
	}
}

// lockMode maps a step kind to the lock mode it needs.
func lockMode(k core.StepKind) lockmgr.Mode {
	if k == core.Read {
		return lockmgr.Shared
	}
	return lockmgr.Exclusive
}

// Strict2PL locks each variable at a transaction's first access in the
// required mode and holds all locks to commit (strict two-phase locking),
// with deadlocks handled by the configured lockmgr policy.
type Strict2PL struct {
	sys     *core.System
	policy  lockmgr.Policy
	table   *lockmgr.Table
	wounded []int
}

// NewStrict2PL returns a strict 2PL scheduler with the given deadlock
// policy.
func NewStrict2PL(policy lockmgr.Policy) *Strict2PL {
	return &Strict2PL{policy: policy}
}

// Name implements Scheduler.
func (s *Strict2PL) Name() string { return "strict-2pl/" + s.policy.String() }

// Begin implements Scheduler.
func (s *Strict2PL) Begin(sys *core.System) {
	s.sys = sys
	s.table = lockmgr.NewTable(s.policy)
	s.wounded = nil
	for tx := 0; tx < sys.NumTxs(); tx++ {
		s.table.Register(lockmgr.TxID(tx))
	}
}

// Try implements Scheduler.
func (s *Strict2PL) Try(id core.StepID) Decision {
	step := s.sys.Step(id)
	need := lockMode(step.Kind)
	if held, ok := s.table.Holds(lockmgr.TxID(id.Tx), step.Var); ok {
		if held == lockmgr.Exclusive || need == lockmgr.Shared {
			return Grant
		}
	}
	r := s.table.Acquire(lockmgr.TxID(id.Tx), step.Var, need)
	for _, w := range r.Wounded {
		s.wounded = append(s.wounded, int(w))
	}
	switch r.Status {
	case lockmgr.Granted:
		return Grant
	case lockmgr.AbortSelf:
		return AbortTx
	default:
		return Delay
	}
}

// Commit implements Scheduler.
func (s *Strict2PL) Commit(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Abort implements Scheduler.
func (s *Strict2PL) Abort(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
}

// Victim implements Scheduler: break a detected waits-for cycle by
// aborting its youngest member.
func (s *Strict2PL) Victim(stuck []int) (int, bool) {
	if cycle, found := s.table.DetectDeadlock(); found {
		return int(s.table.ChooseVictim(cycle)), true
	}
	return 0, false
}

// Wounded implements Scheduler.
func (s *Strict2PL) Wounded() []int {
	w := s.wounded
	s.wounded = nil
	return w
}

// Conservative2PL predeclares each transaction's full lock set (from the
// syntax) and acquires it atomically before the first step; transactions
// never hold locks while waiting, so deadlock is impossible.
type Conservative2PL struct {
	base
	sys    *core.System
	table  *lockmgr.Table
	holds  []bool
	needs  []map[core.Var]lockmgr.Mode
	format []int
	done   []int
}

// NewConservative2PL returns a conservative (static) 2PL scheduler.
func NewConservative2PL() *Conservative2PL { return &Conservative2PL{} }

// Name implements Scheduler.
func (s *Conservative2PL) Name() string { return "conservative-2pl" }

// Begin implements Scheduler.
func (s *Conservative2PL) Begin(sys *core.System) {
	s.sys = sys
	s.table = lockmgr.NewTable(lockmgr.Detect)
	s.format = sys.Format()
	n := sys.NumTxs()
	s.holds = make([]bool, n)
	s.done = make([]int, n)
	s.needs = make([]map[core.Var]lockmgr.Mode, n)
	for tx := 0; tx < n; tx++ {
		s.table.Register(lockmgr.TxID(tx))
		need := map[core.Var]lockmgr.Mode{}
		for _, st := range sys.Txs[tx].Steps {
			m := lockMode(st.Kind)
			if cur, ok := need[st.Var]; !ok || (cur == lockmgr.Shared && m == lockmgr.Exclusive) {
				need[st.Var] = m
			}
		}
		s.needs[tx] = need
	}
}

// Try implements Scheduler.
func (s *Conservative2PL) Try(id core.StepID) Decision {
	if !s.holds[id.Tx] {
		// All-or-nothing acquisition: check availability first.
		for v, m := range s.needs[id.Tx] {
			for holder, hm := range s.table.HeldBy(v) {
				if int(holder) == id.Tx {
					continue
				}
				if !lockmgr.Compatible(hm, m) {
					return Delay
				}
			}
			if s.table.QueueLen(v) > 0 {
				return Delay
			}
		}
		for v, m := range s.needs[id.Tx] {
			if r := s.table.Acquire(lockmgr.TxID(id.Tx), v, m); r.Status != lockmgr.Granted {
				// Cannot happen: availability was just checked.
				return Delay
			}
		}
		s.holds[id.Tx] = true
	}
	s.done[id.Tx]++
	return Grant
}

// Commit implements Scheduler.
func (s *Conservative2PL) Commit(tx int) { s.release(tx) }

// Abort implements Scheduler.
func (s *Conservative2PL) Abort(tx int) { s.release(tx) }

func (s *Conservative2PL) release(tx int) {
	s.table.ReleaseAll(lockmgr.TxID(tx))
	s.table.Forget(lockmgr.TxID(tx))
	s.holds[tx] = false
	s.done[tx] = 0
}
