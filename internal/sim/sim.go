// Package sim is the concurrent runtime of the repository: a
// goroutine-per-user simulation of the Section 6 environment. Multiple
// users at terminals execute transactions that mostly compute locally but
// occasionally touch shared data; a scheduler grants, delays or aborts each
// arriving step request, one request at a time: neither engine collects
// requests into a batch decision.
//
// The simulator decomposes each step's latency exactly as Section 6 does:
//
//	scheduling time — queueing for the scheduler plus its decision,
//	waiting time    — imposed delay until conflicting steps complete,
//	execution time  — the cost of running the step.
//
// Execution time is real work when Config.Backend is set: every granted
// step is applied to the storage backend on the requesting user's goroutine
// (read the record, evaluate the step's interpretation, write a
// copy-on-write record), commits discard the transaction's undo log, and
// aborts roll it back before the scheduler releases any locks. Without a
// backend the step cost is simulated; either way Config.ExecTime adds an
// optional extra per-step cost. Commit processing is off the scheduler's
// grant critical path: the final step's grant replies immediately and the
// user goroutine finishes execution before the commit releases locks.
//
// Any internal/online.Scheduler can be plugged in, so the experiments
// compare the waiting time induced by schedulers with poorer or richer
// fixpoint sets (E4), deadlock-handling policies (E7), structured versus
// unstructured locking (E6), and real storage execution.
//
// # Memory discipline
//
// The steady-state request→grant→execute→commit cycle is allocation-free
// (DESIGN.md "Memory discipline", enforced by TestHotPathAllocCeilings):
// each user goroutine reuses one verdict reply channel for all its
// requests, the histograms (per user) and the concurrent engine's
// granted-step logs (per shard) are presized to the run's expected sample
// counts, each engine's deadlock breaker reuses its stuck list, and commit
// flows through pooled lock-table state (and, on a syncing backend, the
// group-commit pipeline's double-buffered queue). The allocations that
// remain in the drivers are deliberately confined to cold paths: restart
// bookkeeping after an abort, the failure path's error wrapping, and
// end-of-run projection/reporting.
package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// Config parameterizes one simulation run.
type Config struct {
	// System is the instance system: each transaction is one job to run
	// exactly once. Build it from a template with Instantiate.
	System *core.System
	// Sched is the concurrency control under test. The simulator owns it
	// for the duration of the run.
	Sched online.Scheduler
	// Backend, when non-nil, executes every granted step against real
	// storage. Run resets it to the system's first initial state; the
	// system must be executable (every non-Read step interpreted). For
	// strict schedulers (serial, the strict 2PL family) the committed
	// backend state equals core.Exec of Metrics.Output — see
	// internal/storage.
	Backend storage.Backend
	// Users is the number of concurrent user goroutines; jobs are assigned
	// round-robin. Zero means one user per job.
	Users int
	// Batch is ignored: both engines offer every step request to the
	// scheduler on its own. Its only consumer is the bench module's
	// workload configs.
	//
	// Deprecated: set nothing; the field goes once bench stops writing it.
	Batch int
	// ExecTime adds a simulated per-step execution cost on top of any
	// backend work (0 = none). It is slept on the user goroutine after the
	// grant, never inside a scheduler critical section.
	ExecTime time.Duration
	// ThinkTime simulates per-user local computation between steps, drawn
	// uniformly from [0, ThinkTime].
	ThinkTime time.Duration
	// MaxRestarts bounds per-job restarts (0 means 1000).
	MaxRestarts int
	// Seed drives arrival jitter and backoff randomization.
	Seed int64
}

// Metrics aggregates a run.
type Metrics struct {
	// Committed is the number of jobs that committed.
	Committed int
	// Aborts counts transaction restarts.
	Aborts int
	// DeadlockBreaks counts victims chosen when every in-flight
	// transaction was blocked.
	DeadlockBreaks int
	// Yields counts the job ends at which a user of the concurrent engine
	// handed its processor on (runtime.Gosched) because another user might
	// be runnable mid-transaction but not running. It is zero on the
	// central engine and whenever users do not outnumber GOMAXPROCS.
	Yields int
	// CommitGroups and GroupCommits report the group-commit pipeline's
	// coalescing: groups processed and transactions committed through
	// them. Only the concurrent engine on a backend that syncs
	// (storage.GroupSyncer) commits through the pipeline; everywhere else —
	// the concurrent engine on a memory backend or none, and the
	// centralized runtime — both are zero.
	CommitGroups, GroupCommits int
	// WaitNs records per-request waiting time (delay until grant/abort)
	// of every request that parked. A request of a sampled transaction
	// waits from when it was issued, any other from when it parked.
	WaitNs report.Histogram
	// SchedNs records per-request scheduling time (queueing + decision) of
	// every request that did not park. Only the sampled one transaction in
	// samplePeriod per user is timed; the others' requests are counted
	// (N) without a value, so N × Mean estimates the stage's total.
	SchedNs report.Histogram
	// ExecNs records per-step execution time: the backend apply work
	// (empty when no backend is configured; ExecTime sleeps are excluded).
	// It is sampled like SchedNs.
	ExecNs report.Histogram
	// TxLatencyNs records per-job total latency, restarts included, of
	// every job.
	TxLatencyNs report.Histogram
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Throughput is committed jobs per second of wall clock.
	Throughput float64
	// AllocBytes is the heap bytes allocated during the run and AllocsPerTx
	// the heap objects allocated per committed transaction, both from the
	// runtime/metrics allocation counters (report.AllocMeter — NOT
	// runtime.ReadMemStats, whose stop-the-world measurably skews
	// sub-millisecond runs). The counters are process-global, so
	// concurrent activity outside the run pollutes them — they are the
	// trend meters behind ccbench -allocstats; the enforced per-step
	// ceilings live in TestHotPathAllocCeilings.
	AllocBytes  int64
	AllocsPerTx float64
	// GCCycles is the garbage-collection cycles completed during the run
	// (runtime/metrics /gc/cycles/total:gc-cycles, through the same
	// meter, and process-global like it).
	GCCycles int64
	// SnapshotReads counts reads served through the storage snapshot path:
	// the read-only fast path that bypasses the grant machinery entirely
	// when the scheduler is a SnapshotSource and the backend a
	// storage.SnapshotBackend. Zero when the fast path is off.
	SnapshotReads int64
	// VersionGCed counts superseded storage versions the backend's garbage
	// collector unlinked during the run (zero for backends without version
	// chains).
	VersionGCed int64
	// Fsyncs, WALBytes, WALTruncated and RecoveryNs are the durable
	// backend's counters (storage.DurableBackend): log syncs, log bytes
	// appended, torn tails discarded by recovery, and the wall time of the
	// recovery that produced the backend. All zero for memory-only
	// backends.
	Fsyncs       int64
	WALBytes     int64
	WALTruncated int64
	RecoveryNs   int64
	// Checkpoint counters (storage.DurableBackend, checkpoint.go):
	// completed fuzzy checkpoints, failed attempts, sealed segments
	// retired behind a durable marker, bytes the recovery that produced
	// the backend actually replayed (log-since-checkpoint), and the
	// graceful-degradation health flag — true once persistent checkpoint
	// failures disabled the background checkpointer.
	Checkpoints        int64
	CheckpointFailures int64
	SegmentsRetired    int64
	RecoveryBytes      int64
	CheckpointerOff    bool
	// Output is the granted-step log projected to committed transactions'
	// final attempts, in grant order: a legal prefix (whole transactions
	// only) of the instance system, and a complete legal schedule when every
	// job committed. Attempts of transactions that never committed — e.g. a
	// restart budget exhausted on an aborted, rolled-back final attempt —
	// are excluded: their effects were undone, so including them would make
	// Output disagree with the committed state.
	Output core.Schedule
}

// GroupSize returns the mean commit-group size — the coalescing factor the
// group-commit pipeline achieved — or 0 when no commit went through it.
func (m *Metrics) GroupSize() float64 {
	if m.CommitGroups == 0 {
		return 0
	}
	return float64(m.GroupCommits) / float64(m.CommitGroups)
}

// Instantiate builds an instance system with `jobs` transactions by cycling
// through the template's transactions. Instance i runs template transaction
// i mod n under the name "<template>#<i>".
func Instantiate(template *core.System, jobs int) *core.System {
	inst := &core.System{Name: template.Name + "-inst", IC: template.IC, Txs: make([]core.Transaction, max(jobs, 0))}
	for i := range inst.Txs {
		src := template.Txs[i%len(template.Txs)]
		inst.Txs[i] = core.Transaction{Name: src.Name + "#" + strconv.Itoa(i), Steps: src.Steps}
	}
	return inst.Normalize()
}

// request is one step arrival sent to the scheduler goroutine. timed marks
// a request of a sampled transaction, whose decision the scheduler
// goroutine timestamps.
type request struct {
	tx    int
	idx   int
	timed bool
	reply chan verdict
}

type verdict struct {
	aborted bool
	// parked reports the request was delayed before its decision, so its
	// latency is waiting time rather than scheduling time (Section 6).
	parked bool
	// lastGranted reports the grant completed the transaction's final
	// step: the user goroutine executes it and then drives the commit.
	lastGranted bool
	// decided is when the central scheduler goroutine decided a timed or
	// parked request, and since when it parked a parked one, both offsets
	// from the run's epoch. The concurrent engine leaves them zero: its
	// users read the clock themselves once the verdict is in hand.
	decided, since time.Duration
}

// parked is a delayed request awaiting retry; since is when it parked.
type parked struct {
	req   request
	since time.Duration
}

// runErrors collects the first asynchronous error of a run (backend apply
// failures on user goroutines).
type runErrors struct {
	mu  sync.Mutex
	err error
}

func (e *runErrors) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *runErrors) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// applyStep executes a granted step's real work on a central-engine user
// goroutine: the backend apply (timed into exec when the transaction is
// timed, counted otherwise) plus the optional ExecTime extra cost. It
// reports whether the step succeeded, with applyBackend's contract on
// failure.
//
//optcc:hotpath
func applyStep(cfg *Config, tx, idx int, timed bool, exec *report.Histogram, epoch time.Time, errs *runErrors) bool {
	if cfg.Backend != nil {
		var start time.Duration
		if timed {
			start = time.Since(epoch)
		}
		if !applyBackend(cfg, tx, idx, errs) {
			return false
		}
		if timed {
			exec.Add(float64(time.Since(epoch) - start))
		} else {
			exec.Skip()
		}
	}
	if cfg.ExecTime > 0 {
		time.Sleep(cfg.ExecTime)
	}
	return true
}

// applyBackend applies a granted step to the backend on the user goroutine.
// This deliberately happens after the grant, outside every scheduler
// critical section. It reports whether the step succeeded; on failure the
// error is recorded and the caller must abort the transaction through the
// normal abort path (rollback, then scheduler release) and stop it —
// continuing, or worse committing, would persist a partially-applied
// transaction.
//
//optcc:hotpath
func applyBackend(cfg *Config, tx, idx int, errs *runErrors) bool {
	//cclint:ignore hotpath the backend apply is the measured payload work itself, not dispatch overhead
	if err := cfg.Backend.ApplyStep(tx, cfg.System.Txs[tx].Steps[idx]); err != nil {
		//cclint:ignore hotpath failure path; an apply error aborts the transaction, allocation is irrelevant
		errs.set(fmt.Errorf("sim: apply %v: %w", core.StepID{Tx: tx, Idx: idx}, err))
		return false
	}
	return true
}

// Run executes the simulation and returns its metrics. It is deterministic
// in structure (seeded jitter) but, as a true concurrent run, the exact
// interleaving varies; the metrics' invariants (all jobs commit, output
// legal) hold on every run.
//
// A Sched implementing online.ConcurrentScheduler is driven run-to-completion
// (see runSharded): each user decides its own steps under the decision latch
// of the shard its step touches, so users contend only on those shards. A
// plain online.Scheduler runs behind the single centralized scheduler
// goroutine of Section 6.
func Run(cfg Config) (*Metrics, error) {
	m, _, err := run(cfg)
	return m, err
}

// run is Run. On the concurrent engine it also returns the run itself,
// whose shard logs tests check Output against (nil on the central engine).
func run(cfg Config) (*Metrics, *shardedRun, error) {
	sys := cfg.System
	if sys == nil || sys.NumTxs() == 0 {
		return nil, nil, fmt.Errorf("sim: empty system")
	}
	// Both verdicts are memoized on the System: a re-run walks no step.
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Backend != nil {
		if !sys.Executable() {
			return nil, nil, fmt.Errorf("sim: backend execution needs an executable system (every non-Read step interpreted)")
		}
		if _, keepsNoState := cfg.Backend.(storage.Noop); keepsNoState {
			// The noop backend ignores the state it is reset to: do not
			// build one for it.
			cfg.Backend.Reset(nil)
		} else {
			// A store that can find records by variable number learns the
			// System's numbering before it lays its table out.
			if b, ok := cfg.Backend.(storage.Binder); ok {
				b.Bind(sys)
			}
			cfg.Backend.Reset(sys.InitialState())
		}
	}
	users := cfg.Users
	if users <= 0 || users > sys.NumTxs() {
		users = sys.NumTxs()
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1000
	}
	if cs, ok := cfg.Sched.(online.ConcurrentScheduler); ok {
		return runSharded(cfg, cs, sys, users, maxRestarts)
	}
	m, err := runCentral(cfg, sys, users, maxRestarts)
	return m, nil, err
}

// arrivalKind tells the central scheduler goroutine what an arrival is.
type arrivalKind uint8

const (
	stepArrival   arrivalKind = iota // a step request, answered on reply
	commitArrival                    // the transaction executed its final step and committed in the backend
	failArrival                      // a backend apply of step idx failed; reply acknowledges the abort
)

// arrival is one message to the central scheduler goroutine. Every user
// sends on the one inbox, so arrivals are decided in the order they were
// sent: a user's commit always lands before its next request.
type arrival struct {
	request
	kind arrivalKind
}

// runCentral runs a plain online.Scheduler behind the single centralized
// scheduler goroutine of Section 6.
func runCentral(cfg Config, sys *core.System, users, maxRestarts int) (*Metrics, error) {
	m := &Metrics{}
	um := newUserMetrics(sys, users, cfg.Backend != nil)
	var am report.AllocMeter
	am.Start()
	var errs runErrors
	// epoch is the run's start, set before the first job is handed out;
	// every timestamp is a monotonic offset from it.
	var epoch time.Time
	clock := func() time.Duration { return time.Since(epoch) }

	sched := cfg.Sched
	sched.Begin(sys)

	// The scheduler goroutine owns every variable below until schedWG.Wait
	// returns; no user reads them.
	n := sys.NumTxs()
	var (
		waiting []parked
		stuck   []int // breakDeadlock's scratch
		// inFlight marks transactions started and neither committed nor
		// aborted; wounded those to abort at their next request.
		inFlight  = make([]bool, n)
		wounded   = make([]bool, n)
		nInFlight int
		// nCommitting counts transactions whose final step is granted but
		// whose commit (lock release) has not arrived yet; the deadlock
		// breaker must wait for them — their commit is guaranteed to arrive
		// and may unblock everything.
		nCommitting int
		attempts    = make([]int, n)
		committed   = make([]bool, n)
		// output is presized to the conflict-free request count; restarts
		// overflow into amortized append growth (cold path).
		output = make([]online.Event, 0, sys.StepCount())
	)
	for i := range attempts {
		attempts[i] = 1
	}

	// inbox is the scheduler goroutine's only input. A user has at most a
	// commit and one request, or a commit and one failure, outstanding, so
	// with room for two arrivals per user no sender ever blocks.
	inbox := make(chan arrival, 2*users)

	leave := func(tx int) {
		if inFlight[tx] {
			inFlight[tx] = false
			nInFlight--
		}
	}

	grantOne := func(r request) verdict {
		output = append(output, online.Event{Step: core.StepID{Tx: r.tx, Idx: r.idx}, Attempt: attempts[r.tx]})
		last := r.idx == len(sys.Txs[r.tx].Steps)-1
		if last {
			committed[r.tx] = true
			nCommitting++
			leave(r.tx)
		}
		return verdict{lastGranted: last}
	}

	abortOne := func(tx int) {
		// Roll the backend back before the scheduler releases locks, so no
		// concurrent transaction can read the dying writes.
		if cfg.Backend != nil {
			cfg.Backend.Rollback(tx)
		}
		sched.Abort(tx)
		attempts[tx]++
		leave(tx)
		m.Aborts++
	}

	collectWounds := func() {
		for _, w := range sched.Wounded() {
			if !committed[w] {
				wounded[w] = true
			}
		}
	}

	// tryRequest decides one request; returns (verdict, decided). The
	// caller timestamps the verdict.
	tryRequest := func(r request) (verdict, bool) {
		if wounded[r.tx] {
			wounded[r.tx] = false
			abortOne(r.tx)
			return verdict{aborted: true}, true
		}
		if !inFlight[r.tx] {
			inFlight[r.tx] = true
			nInFlight++
		}
		d := sched.Try(core.StepID{Tx: r.tx, Idx: r.idx})
		collectWounds()
		switch d {
		case online.Grant:
			// A transaction wounded by its own request's side effects is
			// honored on its next request, not this grant.
			return grantOne(r), true
		case online.AbortTx:
			abortOne(r.tx)
			return verdict{aborted: true}, true
		default:
			return verdict{}, false
		}
	}

	// unparkReply answers a parked request; every parked wait is timed.
	unparkReply := func(p parked, v verdict) {
		v.parked, v.decided, v.since = true, clock(), p.since
		p.req.reply <- v
	}

	retryParked := func() {
		for {
			progressed := false
			kept := waiting[:0]
			for _, p := range waiting {
				if v, decided := tryRequest(p.req); decided {
					unparkReply(p, v)
					progressed = true
				} else {
					kept = append(kept, p)
				}
			}
			waiting = kept
			if !progressed {
				return
			}
		}
	}

	breakDeadlock := func() {
		// All in-flight transactions parked: abort a victim.
		stuck = stuck[:0]
		for _, p := range waiting {
			stuck = append(stuck, p.req.tx)
		}
		victim, ok := sched.Victim(stuck)
		if !ok || !containsInt(stuck, victim) {
			victim = stuck[0]
		}
		m.DeadlockBreaks++
		kept := waiting[:0]
		var vp parked
		for _, p := range waiting {
			if p.req.tx == victim && vp.req.reply == nil {
				vp = p
				continue
			}
			kept = append(kept, p)
		}
		waiting = kept
		abortOne(victim)
		unparkReply(vp, verdict{aborted: true})
		retryParked()
	}

	// checkDeadlock breaks victims while every in-flight transaction is
	// parked and no commit is pending (a pending commit always arrives and
	// may unblock the waiters for free). Every parked request belongs to an
	// in-flight transaction, and a transaction has at most one request, so
	// the two counts are equal exactly when all in-flight ones are parked.
	checkDeadlock := func() {
		for nCommitting == 0 && len(waiting) > 0 && len(waiting) == nInFlight {
			breakDeadlock()
		}
	}

	// Scheduler goroutine: the single centralized scheduler of Section 6. It
	// takes one arrival at a time off the inbox — a step request, a commit
	// or a failed apply — and decides it on its own, then re-offers the
	// parked requests and checks for deadlock. It reads the clock only for a
	// timed request's decision and for a parked request's park and unpark.
	// Run closes the inbox once every user has exited, so the goroutine
	// drains what is left and returns; schedWG joins it before Run reads
	// the state it owns.
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		for a := range inbox {
			switch a.kind {
			case stepArrival:
				if v, decided := tryRequest(a.request); decided {
					if a.timed {
						v.decided = clock()
					}
					a.reply <- v
				} else {
					waiting = append(waiting, parked{req: a.request, since: clock()})
				}
			case commitArrival:
				nCommitting--
				sched.Commit(a.tx)
			case failArrival:
				if a.idx == len(sys.Txs[a.tx].Steps)-1 {
					// The final step's grant marked the transaction
					// committed before its execution failed; undo that
					// record — it must not commit.
					committed[a.tx] = false
					nCommitting--
				}
				abortOne(a.tx)
				a.reply <- verdict{aborted: true}
			}
			retryParked()
			checkDeadlock()
		}
	}()

	var wg sync.WaitGroup
	jobCh := make(chan int)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(user int, um *userMetrics) {
			defer wg.Done()
			seed := cfg.Seed + int64(user)*7919
			rng, smp := rand.New(rand.NewSource(seed)), newSampler(seed)
			// reply is this user's reusable one-shot channel: every request
			// and every failure gets exactly one verdict and the user reads
			// it before sending the next, so one buffered channel per user
			// replaces the per-step make(chan verdict, 1) that dominated the
			// hot path's allocations.
			reply := make(chan verdict, 1)
			for tx := range jobCh {
				timed := smp.next()
				txStart := clock()
				// Every abort reaches this user as an aborted verdict, so it
				// counts the job's attempts against MaxRestarts itself.
				for attempt := 1; ; attempt++ {
					restart, failed := false, false
					steps := len(sys.Txs[tx].Steps)
					for idx := 0; idx < steps; idx++ {
						if cfg.ThinkTime > 0 {
							time.Sleep(time.Duration(rng.Int63n(int64(cfg.ThinkTime) + 1)))
						}
						var sent time.Duration
						if timed {
							sent = clock()
						}
						r := request{tx: tx, idx: idx, timed: timed, reply: reply}
						inbox <- arrival{request: r}
						v := <-reply
						switch {
						case v.parked && timed:
							um.wait.Add(float64(v.decided - sent))
						case v.parked:
							um.wait.Add(float64(v.decided - v.since))
						case timed:
							um.sched.Add(float64(v.decided - sent))
						default:
							um.sched.Skip()
						}
						if v.aborted {
							restart = true
							break
						}
						if !applyStep(&cfg, tx, idx, timed, &um.exec, epoch, &errs) {
							// Failed execution: abort through the scheduler
							// and stop this transaction for good — no later
							// steps, no commit. Run surfaces the recorded
							// error.
							inbox <- arrival{request: r, kind: failArrival}
							<-reply
							failed = true
							break
						}
						if v.lastGranted {
							if cfg.Backend != nil {
								cfg.Backend.Commit(tx)
								// Durable commit path: the centralized runtime
								// has no commit pipeline, so each commit is its
								// own group of one — sync it now. A failed sync
								// is lost durability; surface it as the run
								// error.
								if gs, ok := cfg.Backend.(storage.GroupSyncer); ok {
									if err := gs.GroupSync(); err != nil {
										errs.set(fmt.Errorf("sim: durable commit of tx %d: %w", tx, err))
									}
								}
							}
							inbox <- arrival{request: request{tx: tx}, kind: commitArrival}
						}
					}
					if failed || !restart || attempt >= maxRestarts {
						break
					}
					// Randomized backoff before restarting.
					time.Sleep(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
				}
				um.latency.Add(float64(clock() - txStart))
			}
		}(u, &um[u])
	}

	epoch = time.Now()
	for tx := 0; tx < sys.NumTxs(); tx++ {
		jobCh <- tx
	}
	close(jobCh)
	wg.Wait()
	close(inbox)
	schedWG.Wait()
	m.Elapsed = clock()
	if err := errs.get(); err != nil {
		return nil, err
	}
	if err := durableErr(cfg.Backend); err != nil {
		return nil, err
	}

	for tx := 0; tx < sys.NumTxs(); tx++ {
		if committed[tx] {
			m.Committed++
		}
	}
	if m.Elapsed > 0 {
		m.Throughput = float64(m.Committed) / m.Elapsed.Seconds()
	}
	m.Output = projectFinal(output, committed)
	fillAllocStats(m, &am)
	mergeUserMetrics(m, um)
	fillSnapshotStats(m, cfg.Backend)
	fillDurableStats(m, cfg.Backend)
	return m, nil
}

// fillSnapshotStats copies the backend's snapshot-path counters into the
// metrics when the backend keeps version chains.
func fillSnapshotStats(m *Metrics, be storage.Backend) {
	if sb, ok := be.(storage.SnapshotBackend); ok {
		m.SnapshotReads = sb.SnapshotReads()
		m.VersionGCed = sb.VersionsGCed()
	}
}

// fillDurableStats copies the durable backend's counters into the metrics.
func fillDurableStats(m *Metrics, be storage.Backend) {
	if db, ok := be.(storage.DurableBackend); ok {
		ds := db.DurabilityStats()
		m.Fsyncs = ds.Fsyncs
		m.WALBytes = ds.WALBytes
		m.WALTruncated = ds.WALTruncated
		m.RecoveryNs = ds.RecoveryNs
		m.Checkpoints = ds.Checkpoints
		m.CheckpointFailures = ds.CheckpointFailures
		m.SegmentsRetired = ds.SegmentsRetired
		m.RecoveryBytes = ds.RecoveryBytes
		m.CheckpointerOff = ds.CheckpointerOff
	}
}

// durableErr surfaces a durable backend's sticky error as the run error:
// a failed append or sync means some "committed" transaction may not be on
// stable storage, and a run that silently succeeded anyway would be the
// exact durability lie the torture tests exist to rule out.
func durableErr(be storage.Backend) error {
	if db, ok := be.(storage.DurableBackend); ok {
		if err := db.Err(); err != nil {
			return fmt.Errorf("sim: durable backend: %w", err)
		}
	}
	return nil
}

// fillAllocStats closes the run's allocation meter into the metrics.
func fillAllocStats(m *Metrics, am *report.AllocMeter) {
	allocs, bytes, cycles := am.Delta()
	m.AllocBytes, m.GCCycles = bytes, cycles
	if m.Committed > 0 {
		m.AllocsPerTx = float64(allocs) / float64(m.Committed)
	}
}

// projectFinal keeps each committed transaction's last attempt from the
// granted-step log, in execution order: a legal schedule of the committed
// transactions (complete when all of them committed). Transactions that
// never committed are excluded entirely — a restart budget exhausted on an
// aborted final attempt leaves steps in the log whose effects were rolled
// back, and keeping them would make the result disagree with both the
// committed backend state and any legal schedule semantics.
func projectFinal(output []online.Event, committed []bool) core.Schedule {
	lastAttempt := make([]int, len(committed))
	for _, e := range output {
		if committed[e.Step.Tx] && e.Attempt > lastAttempt[e.Step.Tx] {
			lastAttempt[e.Step.Tx] = e.Attempt
		}
	}
	h := make(core.Schedule, 0, len(output))
	for _, e := range output {
		if committed[e.Step.Tx] && e.Attempt == lastAttempt[e.Step.Tx] {
			h = append(h, e.Step)
		}
	}
	return h
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
