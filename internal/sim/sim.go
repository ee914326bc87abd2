// Package sim is the concurrent runtime of the repository: a
// goroutine-per-user simulation of the Section 6 environment. Multiple
// users at terminals execute transactions that mostly compute locally but
// occasionally touch shared data; a scheduler grants, delays or aborts each
// arriving step request.
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
// unstructured locking (E6), and real storage execution (E9).
//
// # Memory discipline
//
// The steady-state request→grant→execute→commit cycle is allocation-free
// (DESIGN.md "Memory discipline", enforced by TestHotPathAllocCeilings):
// each user goroutine reuses one verdict reply channel for all its
// requests, the histograms (per user on the concurrent engine) and the
// granted-step logs (per shard there) are presized to the run's expected
// sample counts, the parked-retry batch buffers are per-shard scratch under
// the latch, the deadlock breaker reuses its stuck list, and commit flows
// through pooled lock-table and group-commit state. The allocations that
// remain in the drivers are deliberately confined to cold paths: restart
// bookkeeping after an abort, the failure path's error wrapping, and
// end-of-run projection/reporting.
package sim

import (
	"fmt"
	"math/rand"
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
	// Batch caps how many step requests are decided in one scheduler
	// critical section (0 or 1 = one at a time). On the central engine it
	// coalesces the scheduler goroutine's intake, with an adaptive bound:
	// the goroutine grows it additively while its queue shows backlog and
	// halves it toward 1 as the queue drains (AIMD), so a large Batch costs
	// nothing on thin traffic. The concurrent engine has no intake queue —
	// users decide their own steps — so there Batch only bounds the chunk
	// of parked requests a retry offers through online.TryBatch. On the
	// concurrent engine every commit flows through the storage group-commit
	// pipeline whatever Batch is: a finishing transaction enqueues its
	// commit, and the lane's driver — the first committer to find the lane
	// idle — discards undo logs and releases scheduler locks for the whole
	// accumulated group in one sweep, asynchronously to every follower
	// (async lock release; a lone committer drives its own singleton
	// group, which is the plain inline commit). The granted-step log and
	// all invariants are the same at every Batch.
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
	// CommitGroups and GroupCommits report the group-commit pipeline's
	// coalescing: groups processed and transactions committed through
	// them. The concurrent engine commits through the pipeline at every
	// Batch (groups are mostly singletons unless commits pile up on a
	// lane); both are zero on the centralized runtime, which has no
	// pipeline.
	CommitGroups, GroupCommits int
	// WaitNs records per-request waiting time (delay until grant/abort).
	WaitNs report.Histogram
	// SchedNs records per-request scheduling time (queueing + decision).
	SchedNs report.Histogram
	// ExecNs records per-step execution time: the backend apply work
	// (empty when no backend is configured; ExecTime sleeps are excluded).
	ExecNs report.Histogram
	// TxLatencyNs records per-job total latency, restarts included.
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
// group-commit pipeline achieved — or 0 when group commit was off.
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
	inst := &core.System{Name: template.Name + "-inst", IC: template.IC}
	for i := 0; i < jobs; i++ {
		src := template.Txs[i%len(template.Txs)]
		tx := core.Transaction{Name: fmt.Sprintf("%s#%d", src.Name, i), Steps: src.Steps}
		inst.Txs = append(inst.Txs, tx)
	}
	return inst.Normalize()
}

// request is one step arrival sent to the scheduler goroutine.
type request struct {
	tx      int
	idx     int
	arrived time.Time
	reply   chan verdict
}

type verdict struct {
	aborted bool
	// parked reports the request was delayed before its decision, so its
	// latency is waiting time rather than scheduling time (Section 6).
	parked bool
	// lastGranted reports the grant completed the transaction's final
	// step: the user goroutine executes it and then drives the commit.
	lastGranted bool
	decided     time.Time
}

// parked is a delayed request awaiting retry.
type parked struct {
	req   request
	since time.Time
}

// failure reports a backend apply that failed on a user goroutine: the
// transaction must be aborted through the scheduler (rollback before lock
// release) and stopped. last marks a failure on the final step, whose grant
// already recorded the transaction as committed — that record must be
// undone before the abort. ack is the reporting user's reusable
// acknowledgement channel (capacity 1): the scheduler sends on it when the
// abort is processed.
type failure struct {
	tx   int
	last bool
	ack  chan struct{}
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

// applyStep executes a granted step's real work on the user goroutine: the
// backend apply (timed into exec, under mu unless exec is the caller's own
// and mu nil) plus the optional ExecTime extra cost. This deliberately
// happens after the grant, outside every scheduler critical section. It reports whether the step succeeded; on
// failure the error is recorded and the caller must abort the transaction
// through the normal abort path (rollback, then scheduler release) and stop
// it — continuing, or worse committing, would persist a partially-applied
// transaction.
//
//optcc:hotpath
func applyStep(cfg *Config, tx, idx int, exec *report.Histogram, mu *sync.Mutex, errs *runErrors) bool {
	if cfg.Backend != nil {
		start := time.Now()
		//cclint:ignore hotpath the backend apply is the measured payload work itself, not dispatch overhead
		if err := cfg.Backend.ApplyStep(tx, cfg.System.Txs[tx].Steps[idx]); err != nil {
			//cclint:ignore hotpath failure path; an apply error aborts the transaction, allocation is irrelevant
			errs.set(fmt.Errorf("sim: apply %v: %w", core.StepID{Tx: tx, Idx: idx}, err))
			return false
		}
		d := float64(time.Since(start))
		if mu != nil {
			mu.Lock()
			exec.Add(d)
			mu.Unlock()
		} else {
			exec.Add(d)
		}
	}
	if cfg.ExecTime > 0 {
		time.Sleep(cfg.ExecTime)
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
	sys := cfg.System
	if sys == nil || sys.NumTxs() == 0 {
		return nil, fmt.Errorf("sim: empty system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend != nil {
		if !sys.Executable() {
			return nil, fmt.Errorf("sim: backend execution needs an executable system (every non-Read step interpreted)")
		}
		cfg.Backend.Reset(sys.InitialStates()[0])
	}
	users := cfg.Users
	if users <= 0 || users > sys.NumTxs() {
		users = sys.NumTxs()
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1000
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	if cs, ok := cfg.Sched.(online.ConcurrentScheduler); ok {
		return runSharded(cfg, cs, sys, users, maxRestarts, batch)
	}

	m := &Metrics{}
	presizeMetrics(m, sys, cfg.Backend != nil)
	var am report.AllocMeter
	am.Start()
	var mu sync.Mutex // guards metrics and sched state below
	var errs runErrors

	sched := cfg.Sched
	sched.Begin(sys)

	var (
		waiting  []parked
		inFlight = map[int]bool{} // started, not committed/aborted-pending
		// committing holds transactions whose final step is granted but
		// whose commit (lock release) has not been processed yet; the
		// deadlock breaker must wait for them — their commit is guaranteed
		// to arrive and may unblock everything.
		committing = map[int]bool{}
		wounded    = map[int]bool{}
		attempts   = make([]int, sys.NumTxs())
		committed  = make([]bool, sys.NumTxs())
		// output is presized to the conflict-free request count; restarts
		// overflow into amortized append growth (cold path).
		output = make([]online.Event, 0, sys.StepCount())
	)
	for i := range attempts {
		attempts[i] = 1
	}

	reqCh := make(chan request)
	// commitCh carries finished transactions back to the scheduler
	// goroutine: the user goroutine executes the final step (and the
	// backend commit) first, then the scheduler releases locks. Buffered so
	// committing users never block on the scheduler.
	commitCh := make(chan int, sys.NumTxs())
	// failCh carries failed backend applies: the transaction aborts through
	// the scheduler (rollback before lock release) and must not commit.
	failCh := make(chan failure)
	done := make(chan struct{})

	grantOne := func(r request, now time.Time) verdict {
		output = append(output, online.Event{Step: core.StepID{Tx: r.tx, Idx: r.idx}, Attempt: attempts[r.tx]})
		last := r.idx == len(sys.Txs[r.tx].Steps)-1
		if last {
			committed[r.tx] = true
			committing[r.tx] = true
			delete(inFlight, r.tx)
		}
		return verdict{decided: now, lastGranted: last}
	}

	abortOne := func(tx int) {
		// Roll the backend back before the scheduler releases locks, so no
		// concurrent transaction can read the dying writes.
		if cfg.Backend != nil {
			cfg.Backend.Rollback(tx)
		}
		sched.Abort(tx)
		attempts[tx]++
		delete(inFlight, tx)
		m.Aborts++
	}

	collectWounds := func() {
		for _, w := range sched.Wounded() {
			if !committed[w] {
				wounded[w] = true
			}
		}
	}

	// tryRequest decides one request; returns (verdict, decided).
	tryRequest := func(r request) (verdict, bool) {
		if wounded[r.tx] {
			delete(wounded, r.tx)
			abortOne(r.tx)
			return verdict{aborted: true, decided: time.Now()}, true
		}
		inFlight[r.tx] = true
		d := sched.Try(core.StepID{Tx: r.tx, Idx: r.idx})
		collectWounds()
		now := time.Now()
		switch d {
		case online.Grant:
			// A transaction wounded by its own request's side effects is
			// honored on its next request, not this grant.
			return grantOne(r, now), true
		case online.AbortTx:
			abortOne(r.tx)
			return verdict{aborted: true, decided: now}, true
		default:
			return verdict{}, false
		}
	}

	retryParked := func() {
		for {
			progressed := false
			kept := waiting[:0]
			for _, p := range waiting {
				if wounded[p.req.tx] {
					delete(wounded, p.req.tx)
					abortOne(p.req.tx)
					p.req.reply <- verdict{aborted: true, parked: true, decided: time.Now()}
					progressed = true
					continue
				}
				if v, decided := tryRequest(p.req); decided {
					v.decided = time.Now()
					v.parked = true
					p.req.reply <- v
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
		var stuck []int
		for _, p := range waiting {
			stuck = append(stuck, p.req.tx)
		}
		if len(stuck) == 0 {
			return
		}
		victim, ok := sched.Victim(stuck)
		if !ok || !containsInt(stuck, victim) {
			victim = stuck[0]
		}
		m.DeadlockBreaks++
		kept := waiting[:0]
		var victimReply chan verdict
		for _, p := range waiting {
			if p.req.tx == victim && victimReply == nil {
				victimReply = p.req.reply
				continue
			}
			kept = append(kept, p)
		}
		waiting = kept
		abortOne(victim)
		victimReply <- verdict{aborted: true, parked: true, decided: time.Now()}
		retryParked()
	}

	// checkDeadlock breaks victims while every in-flight transaction is
	// parked and no commit is pending (a pending commit always arrives and
	// may unblock the waiters for free).
	checkDeadlock := func() {
		for len(committing) == 0 && len(waiting) > 0 && len(waiting) >= len(inFlight) && allParked(waiting, inFlight) {
			breakDeadlock()
		}
	}

	// Scheduler goroutine: the single centralized scheduler of Section 6.
	// With Batch > 1 it coalesces its intake: everything queued on a channel
	// is drained opportunistically and processed under one critical section
	// — one parked-retry scan and one deadlock check per batch instead of
	// one per request/commit. The coalescing bound adapts (AIMD on observed
	// backlog, batchSizer) so Batch is the cap, not a fixed size; each
	// channel has its own sizer — commit drains are often singletons, and a
	// shared bound would let them keep halving what the request path earned.
	// schedWG joins the scheduler before Run returns: every sender has
	// exited by the time done is closed (wg.Wait above the close), so the
	// scheduler drains nothing after the join starts and Wait is bounded.
	// Without the join the goroutine could still be inside a mu-protected
	// batch while Run's caller reads Metrics — the race gojoin exists to
	// prevent.
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		reqSizer := newBatchSizer(batch)
		commitSizer := newBatchSizer(batch)
		reqBuf := make([]request, 0, batch)
		commitBuf := make([]int, 0, batch)
		for {
			select {
			case r := <-reqCh:
				bound := reqSizer.bound()
				reqBuf = append(reqBuf[:0], r)
			reqDrain:
				for len(reqBuf) < bound {
					select {
					case r2 := <-reqCh:
						reqBuf = append(reqBuf, r2)
					default:
						break reqDrain
					}
				}
				reqSizer.observe(len(reqBuf))
				mu.Lock()
				for _, r := range reqBuf {
					if v, decided := tryRequest(r); decided {
						r.reply <- v
					} else {
						waiting = append(waiting, parked{req: r, since: time.Now()})
					}
				}
				retryParked()
				checkDeadlock()
				mu.Unlock()
			case tx := <-commitCh:
				bound := commitSizer.bound()
				commitBuf = append(commitBuf[:0], tx)
			commitDrain:
				for len(commitBuf) < bound {
					select {
					case tx2 := <-commitCh:
						commitBuf = append(commitBuf, tx2)
					default:
						break commitDrain
					}
				}
				commitSizer.observe(len(commitBuf))
				mu.Lock()
				for _, tx := range commitBuf {
					delete(committing, tx)
					sched.Commit(tx)
				}
				retryParked()
				checkDeadlock()
				mu.Unlock()
			case f := <-failCh:
				mu.Lock()
				if f.last {
					// The final step's grant marked the transaction
					// committed before its execution failed; undo that
					// record — it must not commit.
					committed[f.tx] = false
					delete(committing, f.tx)
				}
				abortOne(f.tx)
				retryParked()
				checkDeadlock()
				mu.Unlock()
				f.ack <- struct{}{}
			case <-done:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	jobCh := make(chan int)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(user)*7919))
			// reply and ack are this user's reusable one-shot channels:
			// every request gets exactly one verdict and the user reads it
			// before issuing the next request, so one buffered channel per
			// user replaces the per-step make(chan verdict, 1) that
			// dominated the hot path's allocations.
			reply := make(chan verdict, 1)
			ack := make(chan struct{}, 1)
			for tx := range jobCh {
				txStart := time.Now()
				for {
					restart, failed := false, false
					steps := len(sys.Txs[tx].Steps)
					for idx := 0; idx < steps; idx++ {
						if cfg.ThinkTime > 0 {
							time.Sleep(time.Duration(rng.Int63n(int64(cfg.ThinkTime) + 1)))
						}
						sent := time.Now()
						reqCh <- request{tx: tx, idx: idx, arrived: sent, reply: reply}
						v := <-reply
						mu.Lock()
						if v.parked {
							m.WaitNs.Add(float64(v.decided.Sub(sent)))
						} else {
							m.SchedNs.Add(float64(v.decided.Sub(sent)))
						}
						mu.Unlock()
						if v.aborted {
							restart = true
							break
						}
						if !applyStep(&cfg, tx, idx, &m.ExecNs, &mu, &errs) {
							// Failed execution: abort through the scheduler
							// and stop this transaction for good — no later
							// steps, no commit. Run surfaces the recorded
							// error.
							failCh <- failure{tx: tx, last: v.lastGranted, ack: ack}
							<-ack
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
							commitCh <- tx
						}
					}
					if failed || !restart {
						break
					}
					mu.Lock()
					budget := attempts[tx] > maxRestarts
					mu.Unlock()
					if budget {
						break
					}
					// Randomized backoff before restarting.
					time.Sleep(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
				}
				mu.Lock()
				m.TxLatencyNs.Add(float64(time.Since(txStart)))
				mu.Unlock()
			}
		}(u)
	}

	start := time.Now()
	for tx := 0; tx < sys.NumTxs(); tx++ {
		jobCh <- tx
	}
	close(jobCh)
	wg.Wait()
	close(done)
	schedWG.Wait()
	m.Elapsed = time.Since(start)
	if err := errs.get(); err != nil {
		return nil, err
	}
	if err := durableErr(cfg.Backend); err != nil {
		return nil, err
	}

	mu.Lock()
	defer mu.Unlock()
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

// presizeMetrics reserves the histograms' expected steady-state sample
// counts — one wait-or-sched sample per request, one latency sample per
// job, one exec sample per applied step — so recording a sample never
// allocates on a conflict-free run (restarts overflow into amortized
// growth, a cold path).
func presizeMetrics(m *Metrics, sys *core.System, backend bool) {
	steps := sys.StepCount()
	m.WaitNs.Grow(steps)
	m.SchedNs.Grow(steps)
	m.TxLatencyNs.Grow(sys.NumTxs())
	if backend {
		m.ExecNs.Grow(steps)
	}
}

// fillAllocStats closes the run's allocation meter into the metrics.
func fillAllocStats(m *Metrics, am *report.AllocMeter) {
	allocs, bytes := am.Delta()
	m.AllocBytes = bytes
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

// allParked reports whether every in-flight transaction has a parked
// request.
func allParked(waiting []parked, inFlight map[int]bool) bool {
	parkedTx := map[int]bool{}
	for _, p := range waiting {
		parkedTx[p.req.tx] = true
	}
	for tx := range inFlight {
		if !parkedTx[tx] {
			return false
		}
	}
	return len(inFlight) > 0
}
