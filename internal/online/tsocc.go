package online

import (
	"optcc/internal/conflict"
	"optcc/internal/core"
)

// TO is the basic timestamp-ordering scheduler ([Stearns et al. 76]
// lineage): each transaction gets a timestamp at its first request; a step
// is granted only if it would not read or overwrite data "from the
// future". Conflicting accesses therefore execute in timestamp order, so
// every undelayed history is conflict-serializable in arrival order.
type TO struct {
	base
	sys *core.System
	// Thomas enables the Thomas write rule: a blind write older than the
	// variable's latest write is skipped rather than aborted.
	Thomas bool

	clock   int64
	ts      []int64
	readTS  map[core.Var]int64
	writeTS map[core.Var]int64
}

// NewTO returns a basic timestamp-ordering scheduler.
func NewTO() *TO { return &TO{} }

// NewTOThomas returns timestamp ordering with the Thomas write rule.
func NewTOThomas() *TO { return &TO{Thomas: true} }

// Name implements Scheduler.
func (s *TO) Name() string {
	if s.Thomas {
		return "to/thomas"
	}
	return "to/basic"
}

// Begin implements Scheduler.
func (s *TO) Begin(sys *core.System) {
	s.sys = sys
	s.clock = 0
	s.ts = make([]int64, sys.NumTxs())
	s.readTS = map[core.Var]int64{}
	s.writeTS = map[core.Var]int64{}
}

// Try implements Scheduler.
func (s *TO) Try(id core.StepID) Decision {
	if s.ts[id.Tx] == 0 {
		s.clock++
		s.ts[id.Tx] = s.clock
	}
	ts := s.ts[id.Tx]
	step := s.sys.Step(id)
	v := step.Var
	if conflict.Reads(step.Kind) && ts < s.writeTS[v] {
		return AbortTx
	}
	if conflict.Writes(step.Kind) {
		if ts < s.readTS[v] {
			return AbortTx
		}
		if ts < s.writeTS[v] {
			if s.Thomas && step.Kind == core.Write {
				// Thomas write rule: obsolete blind write is a no-op.
				return Grant
			}
			return AbortTx
		}
	}
	if conflict.Reads(step.Kind) && ts > s.readTS[v] {
		s.readTS[v] = ts
	}
	if conflict.Writes(step.Kind) && ts > s.writeTS[v] {
		s.writeTS[v] = ts
	}
	return Grant
}

// Commit implements Scheduler.
func (s *TO) Commit(tx int) {}

// Abort implements Scheduler: the transaction restarts with a fresh (later)
// timestamp, which guarantees progress.
func (s *TO) Abort(tx int) { s.ts[tx] = 0 }

// OCC is an optimistic scheduler with validation at commit, in the serial
// validation style of Kung & Robinson: steps always execute immediately;
// at its last step a transaction certifies itself and restarts on failure.
//
// Because this runtime executes writes in place (there is no private
// workspace whose writes install atomically at commit), backward
// validation alone is unsound — a concurrent reader can observe an active
// transaction's write. Validation therefore checks three conditions for
// the committing transaction j:
//
//	(a) backward r/w: no transaction that committed during j's lifetime
//	    wrote anything j read;
//	(b) dirty read: j never read a variable previously written by a still
//	    active transaction;
//	(c) backward w/w: no transaction that committed during j's lifetime
//	    wrote anything j wrote (write phases interleave in place, so
//	    intermingled writes cannot be certified).
//
// The symmetric dirty-write/anti-dependency cases are caught when the
// other transaction validates, via (a) and (c).
type OCC struct {
	base
	sys        *core.System
	clock      int
	start      []int
	readTimes  []map[core.Var]int // LAST read time per variable (see (b))
	writeTimes []map[core.Var]int // first write time per variable
	history    []occCommit
}

type occCommit struct {
	at     int
	writes map[core.Var]bool
}

// NewOCC returns an optimistic scheduler.
func NewOCC() *OCC { return &OCC{} }

// Name implements Scheduler.
func (s *OCC) Name() string { return "occ/backward" }

// Begin implements Scheduler.
func (s *OCC) Begin(sys *core.System) {
	s.sys = sys
	s.clock = 0
	n := sys.NumTxs()
	s.start = make([]int, n)
	s.readTimes = make([]map[core.Var]int, n)
	s.writeTimes = make([]map[core.Var]int, n)
	s.history = nil
	for i := 0; i < n; i++ {
		s.reset(i)
	}
}

func (s *OCC) reset(tx int) {
	s.start[tx] = -1
	s.readTimes[tx] = map[core.Var]int{}
	s.writeTimes[tx] = map[core.Var]int{}
}

// active reports whether a transaction has executed steps and not yet
// committed (its sets are non-empty and start assigned).
func (s *OCC) activeTx(tx int) bool { return s.start[tx] >= 0 }

// Try implements Scheduler.
func (s *OCC) Try(id core.StepID) Decision {
	if s.start[id.Tx] < 0 {
		s.start[id.Tx] = s.clock
	}
	step := s.sys.Step(id)
	last := id.Idx == len(s.sys.Txs[id.Tx].Steps)-1
	if last {
		// Assemble j's read/write views including this final step.
		reads := map[core.Var]int{}
		for v, t := range s.readTimes[id.Tx] {
			reads[v] = t
		}
		writes := map[core.Var]int{}
		for v, t := range s.writeTimes[id.Tx] {
			writes[v] = t
		}
		now := s.clock + 1
		if conflict.Reads(step.Kind) {
			// Last read time, not first: with in-place writes, a repeat
			// read of v observes the latest state, so a writer that slid
			// between two of j's reads of v is a dirty read even though it
			// postdates the first one.
			reads[step.Var] = now
		}
		if conflict.Writes(step.Kind) {
			if _, ok := writes[step.Var]; !ok {
				writes[step.Var] = now
			}
		}
		// (a) + (c): backward validation against commits during lifetime.
		for _, c := range s.history {
			if c.at <= s.start[id.Tx] {
				continue
			}
			for v := range c.writes {
				if _, ok := reads[v]; ok {
					return AbortTx
				}
				if _, ok := writes[v]; ok {
					return AbortTx
				}
			}
		}
		// (b): dirty reads from still-active writers.
		for other := 0; other < s.sys.NumTxs(); other++ {
			if other == id.Tx || !s.activeTx(other) {
				continue
			}
			for v, wt := range s.writeTimes[other] {
				if rt, ok := reads[v]; ok && wt < rt {
					return AbortTx
				}
			}
		}
	}
	s.clock++
	if conflict.Reads(step.Kind) {
		s.readTimes[id.Tx][step.Var] = s.clock
	}
	if conflict.Writes(step.Kind) {
		if _, ok := s.writeTimes[id.Tx][step.Var]; !ok {
			s.writeTimes[id.Tx][step.Var] = s.clock
		}
	}
	if last {
		// Commit point: validation passed, so the write set is recorded and
		// the transaction retired HERE, atomically with the validating
		// grant. Recording it in Commit instead is a commit-path race under
		// the concurrent runtime — Commit runs on the user goroutine (with
		// group commit, on a pipeline lane), and a transaction validating
		// in the window between this grant and that Commit would miss the
		// write set and certify a non-serializable interleaving.
		writes := map[core.Var]bool{}
		for v := range s.writeTimes[id.Tx] {
			writes[v] = true
		}
		s.clock++
		s.history = append(s.history, occCommit{at: s.clock, writes: writes})
		s.reset(id.Tx)
	}
	return Grant
}

// Commit implements Scheduler. The commit point is the validating grant of
// the transaction's last step (see Try), which already recorded the write
// set and retired the transaction, so this reset is an idempotent no-op.
func (s *OCC) Commit(tx int) { s.reset(tx) }

// Abort implements Scheduler.
func (s *OCC) Abort(tx int) { s.reset(tx) }
