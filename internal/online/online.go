// Package online implements online schedulers: concurrency controls that
// process an arriving stream of step requests one at a time, granting,
// delaying or aborting each. These are the practical mechanisms the
// paper's theory ranks — each realizes some fixpoint set between the
// serial schedules (minimum information) and SR(T) (complete syntactic
// information).
//
// The package provides a replay harness (Replay) that feeds a complete
// request history h ∈ H to a scheduler, retries delayed requests after
// every event, restarts aborted transactions, and reports whether h passed
// entirely undelayed — the membership test for the scheduler's realized
// fixpoint set, compared against theory in internal/fixpoint and the
// benchmarks.
//
// Implemented schedulers:
//
//   - Serial: one transaction at a time (Theorem 2's optimum for minimum
//     information).
//   - Strict 2PL: lock at first access, hold to commit, deadlock handling
//     per lockmgr.Policy.
//   - Conservative 2PL: predeclared lock set acquired atomically at start
//     (no deadlocks).
//   - SGT: serialization-graph testing; grants exactly while the conflict
//     graph stays acyclic, so its fixpoint is the CSR set.
//   - TO: Basic timestamp ordering, optionally with the Thomas write rule.
//   - OCC: optimistic execution with backward validation at commit
//     (Kung–Robinson style serial validation).
//
// The concurrent runtime's contract (ConcurrentScheduler) and Mutexed —
// any scheduler above behind one mutex, one shard, exactly its fixpoint
// set — live in concurrent.go. Each family's multi-shard form is its
// native scheduler and nothing else: ConcurrentStrict2PL (sharded lock
// table), ConcurrentTO and ConcurrentMV (lock-free sharded atomic
// timestamp table), ConcurrentSGT (striped component graph) and
// ConcurrentOCC (epoch-published validation).
package online

import (
	"fmt"

	"optcc/internal/core"
	"optcc/internal/storage"
)

// Decision is a scheduler's response to a step request.
type Decision int

const (
	// Grant: the step executes now.
	Grant Decision = iota
	// Delay: the request waits; it will be retried after the next event.
	Delay
	// AbortTx: the requesting transaction must roll back and restart.
	AbortTx
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Grant:
		return "grant"
	case Delay:
		return "delay"
	case AbortTx:
		return "abort"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Scheduler is the policy interface driven by the replay harness and the
// simulator. Implementations are single-threaded; callers serialize access.
type Scheduler interface {
	// Name identifies the scheduler.
	Name() string
	// Begin resets all state for a run over the system.
	Begin(sys *core.System)
	// Try asks whether step id — necessarily the next unexecuted step of
	// its transaction — may execute now. Grant means it has executed (the
	// scheduler updates its bookkeeping). Delay queues it. AbortTx tells
	// the caller to roll the transaction back and restart it later.
	Try(id core.StepID) Decision
	// Commit notifies that the transaction completed its last step.
	Commit(tx int)
	// Abort notifies that the transaction's executed steps are discarded
	// (it will restart from its first step with a fresh identity).
	Abort(tx int)
	// Victim nominates a transaction to abort when the harness detects
	// that no queued request can progress (deadlock or permanent block).
	// It is called with the stuck transactions; ok=false defers to the
	// harness default (the first stuck transaction).
	Victim(stuck []int) (tx int, ok bool)
	// Wounded returns and clears transactions the scheduler decided to
	// abort preemptively (wound-wait); the caller rolls them back.
	Wounded() []int
}

// Event records one executed step in a replay.
type Event struct {
	Step core.StepID
	// Attempt is 1 for the first execution, incremented per restart of the
	// transaction.
	Attempt int
}

// Result reports a replay.
type Result struct {
	// Output lists executed steps in execution order, including repeats
	// from restarts.
	Output []Event
	// Delays counts requests that could not be granted when first offered
	// (including re-offers after restarts).
	Delays int
	// Aborts counts transaction restarts.
	Aborts int
	// Undelayed reports that the history passed exactly as it arrived: no
	// delay, no abort. This is fixpoint membership.
	Undelayed bool
	// Completed reports that every transaction eventually committed.
	Completed bool
}

// FinalSchedule returns the de-duplicated final schedule: the steps of each
// transaction's last (committed) attempt, in execution order. It is a legal
// schedule of the system when the replay completed.
func (r *Result) FinalSchedule(sys *core.System) core.Schedule {
	attempts := make([]int, sys.NumTxs())
	for _, e := range r.Output {
		if e.Attempt > attempts[e.Step.Tx] {
			attempts[e.Step.Tx] = e.Attempt
		}
	}
	var h core.Schedule
	for _, e := range r.Output {
		if e.Attempt == attempts[e.Step.Tx] {
			h = append(h, e.Step)
		}
	}
	return h
}

// Replay feeds the complete history h to the scheduler: each arrival is
// offered, delayed requests are retried after every grant/abort, and when
// the stream is exhausted stuck transactions are broken by aborting a
// victim. maxRestarts bounds per-transaction restarts (0 means 10).
func Replay(sys *core.System, sched Scheduler, h core.Schedule, maxRestarts int) (*Result, error) {
	return ReplayOn(sys, sched, h, maxRestarts, nil)
}

// ReplayOn is Replay against real storage: every granted step is applied to
// the backend, a commit discards the transaction's undo log, and every
// abort path rolls the backend back before the scheduler is notified — the
// same rollback-before-release order as the concurrent runtime in
// internal/sim. With a nil backend it is exactly Replay. Because the replay
// is single-threaded, execution order equals grant order, so the committed
// backend state equals core.Exec of Result.FinalSchedule for any strict
// scheduler (see internal/storage for the invariant's scope).
func ReplayOn(sys *core.System, sched Scheduler, h core.Schedule, maxRestarts int, be storage.Backend) (*Result, error) {
	if !h.Legal(sys.Format()) {
		return nil, fmt.Errorf("online: history %v not legal for format %v", h, sys.Format())
	}
	if maxRestarts <= 0 {
		maxRestarts = 10
	}
	if be != nil {
		if !sys.Executable() {
			return nil, fmt.Errorf("online: backend replay needs an executable system")
		}
		be.Reset(sys.InitialStates()[0])
	}
	sched.Begin(sys)
	format := sys.Format()
	n := sys.NumTxs()
	arrived := make([]int, n)  // steps arrived per tx
	executed := make([]int, n) // steps executed in current attempt
	attempt := make([]int, n)
	committed := make([]bool, n)
	// backoff marks freshly aborted transactions: they are not retried
	// until another transaction makes progress or one of their own
	// requests arrives, which prevents abort livelock under no-wait and
	// wait-die.
	backoff := make([]bool, n)
	for i := range attempt {
		attempt[i] = 1
	}
	res := &Result{Undelayed: true}

	// apply executes a granted step against the backend; rollback undoes a
	// transaction before the scheduler learns of its abort. Both are no-ops
	// without a backend.
	var applyErr error
	apply := func(id core.StepID) {
		if be == nil {
			return
		}
		if err := be.ApplyStep(id.Tx, sys.Step(id)); err != nil && applyErr == nil {
			applyErr = err
		}
	}
	rollback := func(tx int) {
		if be != nil {
			be.Rollback(tx)
		}
	}

	// applyWounds rolls back transactions the scheduler wounded.
	applyWounds := func() bool {
		any := false
		for _, w := range sched.Wounded() {
			if w < 0 || w >= n || committed[w] || attempt[w] > maxRestarts {
				continue
			}
			rollback(w)
			sched.Abort(w)
			executed[w] = 0
			attempt[w]++
			res.Aborts++
			res.Undelayed = false
			any = true
		}
		return any
	}

	execute := func(tx int) bool {
		// Try to run tx forward as far as arrivals allow.
		progressed := false
		for !committed[tx] && executed[tx] < arrived[tx] {
			id := core.StepID{Tx: tx, Idx: executed[tx]}
			d := sched.Try(id)
			if applyWounds() {
				progressed = true
			}
			switch d {
			case Grant:
				apply(id)
				res.Output = append(res.Output, Event{Step: id, Attempt: attempt[tx]})
				executed[tx]++
				progressed = true
				for other := 0; other < n; other++ {
					if other != tx {
						backoff[other] = false
					}
				}
				if executed[tx] == format[tx] {
					committed[tx] = true
					if be != nil {
						be.Commit(tx)
					}
					sched.Commit(tx)
				}
			case Delay:
				return progressed
			case AbortTx:
				if attempt[tx] > maxRestarts {
					return progressed
				}
				rollback(tx)
				sched.Abort(tx)
				executed[tx] = 0
				attempt[tx]++
				res.Aborts++
				res.Undelayed = false
				backoff[tx] = true
				return true
			}
		}
		return progressed
	}

	drain := func() {
		for {
			progressed := false
			for tx := 0; tx < n; tx++ {
				if !committed[tx] && !backoff[tx] && executed[tx] < arrived[tx] {
					if execute(tx) {
						progressed = true
					}
				}
			}
			if !progressed {
				return
			}
		}
	}

	for _, id := range h {
		arrived[id.Tx]++
		backoff[id.Tx] = false
		before := executed[id.Tx]
		execute(id.Tx)
		if executed[id.Tx] <= before && !committed[id.Tx] {
			res.Delays++
			res.Undelayed = false
		}
		drain()
	}
	// Stream exhausted: break deadlocks until everything commits or a
	// restart budget is blown.
	for {
		for tx := range backoff {
			backoff[tx] = false
		}
		drain()
		var stuck []int
		for tx := 0; tx < n; tx++ {
			if !committed[tx] {
				stuck = append(stuck, tx)
			}
		}
		if len(stuck) == 0 {
			res.Completed = true
			break
		}
		victim, ok := sched.Victim(stuck)
		if !ok {
			victim = stuck[0]
		}
		if attempt[victim] > maxRestarts {
			break
		}
		rollback(victim)
		sched.Abort(victim)
		executed[victim] = 0
		attempt[victim]++
		res.Aborts++
		res.Undelayed = false
	}
	if applyErr != nil {
		return res, fmt.Errorf("online: %s: %w", sched.Name(), applyErr)
	}
	if !res.Completed {
		return res, fmt.Errorf("online: %s failed to complete history %v after restarts", sched.Name(), h)
	}
	return res, nil
}

// Fixpoint enumerates a set of histories and reports which pass the
// scheduler undelayed. The callback receives every history with its
// membership verdict.
func Fixpoint(sys *core.System, sched Scheduler, histories []core.Schedule, visit func(h core.Schedule, in bool)) (count int, err error) {
	for _, h := range histories {
		res, err := Replay(sys, sched, h, 0)
		if err != nil {
			return count, err
		}
		if res.Undelayed {
			count++
		}
		if visit != nil {
			visit(h, res.Undelayed)
		}
	}
	return count, nil
}
