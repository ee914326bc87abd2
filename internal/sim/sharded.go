// Run-to-completion dispatch: the concurrent runtime for
// online.ConcurrentScheduler. There is no scheduler goroutine and no
// request channel: a user goroutine decides its own step. It locks the
// decision latch of the shard owning the step's variable, honours a pending
// wound, calls the scheduler's Try, appends a grant to that shard's log,
// unlocks, and then executes the step — and for the final step drives the
// commit — itself. The latch serialises all decisions on one shard's
// variables, which is exactly the ConcurrentScheduler contract; different
// shards decide in parallel. The Section 6 latency decomposition is
// unchanged: latch wait + decision is scheduling time, time parked is
// waiting time, step cost (real backend work and/or the ExecTime knob) is
// execution time.
//
// A Delay parks the request in the shard's parked list and the user blocks
// on its own verdict channel. Nobody polls: whoever changes state another
// request may wait on — the commit lane's release callback, an abort, a
// fresh wound — re-offers the parked requests (kickParked) of exactly those
// shards whose atomic parked counter is non-zero, one latch at a time and
// never while holding another latch. A request registers (append and
// counter++) before a final re-offer inside the same latch hold, pairing
// with the releaser's "release, then read the counter": either the
// re-offer sees the release or the releaser sees the registration, so no
// wake-up is lost. A watchdog tick re-offers as well, but only against
// goroutines starved on an oversubscribed machine, never as the mechanism.
//
// Aborts roll the backend back *before* the scheduler releases the
// victim's locks (the victim is always parked or between its own requests
// when aborted, so its rollback races with nothing of its own). A deadlock
// breaker — triggered when every in-flight transaction is parked — picks a
// victim through the scheduler's global waits-for view; it holds off while
// any commit is in flight, because that commit is guaranteed to arrive and
// may unblock the waiters for free.
//
// Finishing transactions enqueue into a storage.GroupCommitter lane; the
// lane discards a whole group's undo logs and releases their scheduler
// locks in one sweep, followed by one kickParked per group (async lock
// release — commit processing leaves the follower's goroutine entirely).
// There is no intake queue left to coalesce, so Config.Batch only bounds
// the chunk of parked requests a retry offers through online.TryBatch (one
// scheduler critical section per chunk for the natively batched
// schedulers).
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// watchdogPeriod is the breaker goroutine's tick. Tests raise it to prove
// that no wake-up depends on the tick.
var watchdogPeriod = 250 * time.Microsecond

// shardState is one shard's decision latch and everything it guards: the
// parked list, the shard's grant log and the batched-retry scratch.
// nParked mirrors len(parked) so releasers can skip shards with nobody to
// wake without touching the latch; it sits on its own cache line because
// every commit reads it while the latch next to it changes hands.
type shardState struct {
	nParked atomic.Int32
	_       [60]byte

	mu     sync.Mutex // the decision latch
	parked []request
	log    []grant

	ids      []core.StepID
	slots    []int
	verdicts []verdict
}

// grant is one granted step in a shard's log. Stamps come from one
// run-global counter read under the latch, so stamp order is grant order
// and, per variable, decision order.
type grant struct {
	stamp            int64
	tx, idx, attempt int32
}

// txState is a transaction's run state. restarts (the aborts so far, which
// numbers the current attempt), inFlight and committed change only on
// behalf of the transaction itself (its one outstanding request, its abort,
// its commit); wounded is set by whoever observes the wound.
type txState struct {
	restarts  atomic.Int32
	inFlight  atomic.Bool // started, neither committed nor aborted
	wounded   atomic.Bool // abort at its next request
	committed atomic.Bool // final step granted, or served by the snapshot path
}

// userMetrics is one user goroutine's private histograms, merged into the
// run's Metrics after the users have joined.
type userMetrics struct {
	wait, sched, exec, latency report.Histogram
	_                          [64]byte
}

type shardedRun struct {
	cfg         *Config
	cs          online.ConcurrentScheduler
	sys         *core.System
	sb          storage.SnapshotBackend
	gc          *storage.GroupCommitter
	batch       int
	maxRestarts int
	// yield makes users hand their processor on between transactions. A
	// run-to-completion user never blocks on an uncontended run, so with
	// more users than processors the Go scheduler would rotate them only at
	// its 10 ms preemption tick, and a latch contender that slept would
	// wait that long to run again; yielding rotates the terminals at
	// transaction granularity instead.
	yield bool

	shards []*shardState
	txs    []txState
	// roTx marks the transactions the read-only fast path serves (nil when
	// the path is off).
	roTx []bool

	nextJob atomic.Int64 // job cursor: users claim the next transaction
	stamp   atomic.Int64 // grants issued so far
	// inFlight counts the transactions in flight; committing those whose
	// final step is granted but whose locks are not released yet.
	inFlight, committing atomic.Int64
	aborts, breaks       atomic.Int64

	breakCh chan struct{}
	stuck   []int // the breaker goroutine's scratch
	errs    runErrors
}

func runSharded(cfg Config, cs online.ConcurrentScheduler, sys *core.System, users, maxRestarts, batch int) (*Metrics, error) {
	m := &Metrics{}
	n := sys.NumTxs()
	// Histogram storage is reserved per user, outside the allocation meter
	// like the merge below: half again a user's even share of the samples,
	// so recording allocates nothing unless the job split is badly skewed
	// (then: amortized growth, a cold path).
	um := make([]userMetrics, users)
	steps, jobs := sys.StepCount()/users*3/2+16, n/users*3/2+16
	for i := range um {
		um[i].wait.Grow(steps)
		um[i].sched.Grow(steps)
		um[i].latency.Grow(jobs)
		if cfg.Backend != nil {
			um[i].exec.Grow(steps)
		}
	}
	var am report.AllocMeter
	am.Start()
	cs.Begin(sys)

	r := &shardedRun{cfg: &cfg, cs: cs, sys: sys, batch: batch, maxRestarts: maxRestarts,
		yield: users > runtime.GOMAXPROCS(0), txs: make([]txState, n), breakCh: make(chan struct{}, 1)}

	// Read-only fast path: when the scheduler's semantics allow it
	// (online.SnapshotSource) and the backend keeps version chains
	// (storage.SnapshotBackend) with a pin slot per user, transactions
	// whose every step is a Read are served from a pinned consistent
	// snapshot on their user goroutine — no latch, no scheduler call, no
	// lock of any kind. They contribute no granted-step events: the
	// projected Output is the committed write-set schedule, which is
	// exactly what the replay self-checks compare against.
	r.sb, _ = cfg.Backend.(storage.SnapshotBackend)
	if src, ok := cfg.Sched.(online.SnapshotSource); ok && src.ReadOnlySnapshots() && r.sb != nil && users <= r.sb.SnapshotSlots() {
		r.roTx = make([]bool, n)
		for tx := range r.roTx {
			ro := len(sys.Txs[tx].Steps) > 0
			for _, st := range sys.Txs[tx].Steps {
				ro = ro && st.Kind == core.Read
			}
			r.roTx[tx] = ro
		}
	}

	// Each shard's grant log is presized to the conflict-free request count
	// of its variables; restarts overflow into amortized growth (cold path).
	perShard := make([]int, cs.NumShards())
	for tx := range sys.Txs {
		if r.roTx == nil || !r.roTx[tx] {
			for _, st := range sys.Txs[tx].Steps {
				perShard[cs.ShardOf(st.Var)]++
			}
		}
	}
	r.shards = make([]*shardState, len(perShard))
	for i := range r.shards {
		r.shards[i] = &shardState{log: make([]grant, 0, perShard[i])}
	}

	// Group commit: finishing users enqueue into a per-lane commit pipeline;
	// the lane's driver (the first committer to find it idle — a live user
	// goroutine, so no wakeup handoff) discards a whole group's undo logs
	// while their locks are still held, then releases the group's scheduler
	// locks and re-offers parked requests once. The breaker stays disabled
	// until the group's release completes (committing is decremented last),
	// preserving the "a pending commit always arrives" argument. Lanes
	// partition by transaction id, NOT by shard (a transaction's locks may
	// span shards); the shard count is only borrowed as a concurrency
	// heuristic for how many lanes to run. An idle lane makes its enqueuer
	// the driver of a singleton group — the plain inline commit — and
	// whenever commits pile up the followers return immediately.
	r.gc = storage.NewGroupCommitter(cfg.Backend, cs.NumShards(), func(txs []int) {
		for _, tx := range txs {
			cs.Commit(tx)
		}
		r.kickParked()
		r.committing.Add(-int64(len(txs)))
		r.maybeBreak()
	})
	// Durable backends sync once per drained group (storage.GroupSyncer). A
	// failed sync fails the whole group: record it as the run error; the
	// release callback above still runs so locks free and the run drains.
	r.gc.OnFail(func(txs []int, err error) {
		r.errs.set(fmt.Errorf("sim: durable group commit of %d txs: %w", len(txs), err))
	})

	// The breaker goroutine is joined before Run returns: machinery from
	// this run must not bleed CPU into whatever the caller does next.
	done := make(chan struct{})
	var breakerWG, wg sync.WaitGroup
	breakerWG.Add(1)
	go func() {
		defer breakerWG.Done()
		ticker := time.NewTicker(watchdogPeriod)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-r.breakCh:
				r.tryBreak()
			case <-ticker.C:
				if r.parkedTotal() > 0 {
					r.kickParked()
					r.tryBreak()
				}
			}
		}
	}()

	// All terminals are live before the clock starts and the first job is
	// claimed: a transaction is shorter than a goroutine start, so without
	// the gate the first user would run a small job set alone.
	gate := make(chan struct{})
	for u := range um {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			<-gate
			r.runUser(user, &um[user])
		}(u)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	// Flush the commit pipeline before stopping the breaker: pending groups
	// still need their undo logs discarded and locks released, and the
	// metrics below must see a quiesced backend.
	r.gc.Close()
	groups, txs := r.gc.Stats()
	m.CommitGroups, m.GroupCommits = int(groups), int(txs)
	close(done)
	breakerWG.Wait()
	m.Elapsed = time.Since(start)
	if err := r.errs.get(); err != nil {
		return nil, err
	}
	if err := durableErr(cfg.Backend); err != nil {
		return nil, err
	}

	for tx := range r.txs {
		if r.txs[tx].committed.Load() {
			m.Committed++
		}
	}
	m.Aborts, m.DeadlockBreaks = int(r.aborts.Load()), int(r.breaks.Load())
	m.Output = r.project()
	if m.Elapsed > 0 {
		m.Throughput = float64(m.Committed) / m.Elapsed.Seconds()
	}
	fillAllocStats(m, &am)
	for i := range um {
		m.WaitNs.Merge(&um[i].wait)
		m.SchedNs.Merge(&um[i].sched)
		m.ExecNs.Merge(&um[i].exec)
		m.TxLatencyNs.Merge(&um[i].latency)
	}
	fillSnapshotStats(m, cfg.Backend)
	fillDurableStats(m, cfg.Backend)
	return m, nil
}

// runUser is one terminal: it claims jobs from the cursor and runs each to
// completion — decide, execute, commit — on this goroutine.
func (r *shardedRun) runUser(user int, um *userMetrics) {
	cfg := r.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + int64(user)*7919))
	// reply is this user's reusable verdict channel: a request that parks
	// gets exactly one verdict (the deadlock breaker's is that one too) and
	// the user reads it before its next request.
	reply := make(chan verdict, 1)
	think := func() {
		if cfg.ThinkTime > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(cfg.ThinkTime) + 1)))
		}
	}
	for {
		tx := int(r.nextJob.Add(1)) - 1
		if tx >= len(r.txs) {
			return
		}
		txStart := time.Now()
		steps := r.sys.Txs[tx].Steps
		if r.roTx != nil && r.roTx[tx] {
			// Read-only fast path: one pinned snapshot, every step a
			// lock-free chain walk, nothing shared but atomics.
			snap := r.sb.SnapshotAcquire(user)
			for i := range steps {
				think()
				r.sb.SnapshotRead(user, steps[i].Var, snap)
				if cfg.ExecTime > 0 {
					time.Sleep(cfg.ExecTime)
				}
			}
			r.sb.SnapshotRelease(user)
			r.txs[tx].committed.Store(true)
		} else {
			for r.attempt(tx, steps, um, reply, think) && int(r.txs[tx].restarts.Load()) < r.maxRestarts {
				time.Sleep(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
			}
		}
		um.latency.Add(float64(time.Since(txStart)))
		if r.yield {
			runtime.Gosched()
		}
	}
}

// attempt runs one attempt of tx — every step decided, executed and, after
// the last one, the commit enqueued — and reports whether it was aborted
// and should restart.
func (r *shardedRun) attempt(tx int, steps []core.Step, um *userMetrics, reply chan verdict, think func()) (restart bool) {
	for idx := range steps {
		think()
		sent := time.Now()
		v := r.request(r.shards[r.cs.ShardOf(steps[idx].Var)], tx, idx, reply)
		if v.parked {
			um.wait.Add(float64(v.decided.Sub(sent)))
		} else {
			um.sched.Add(float64(v.decided.Sub(sent)))
		}
		if v.aborted {
			return true
		}
		if !applyStep(r.cfg, tx, idx, &um.exec, nil, &r.errs) {
			// Failed execution: abort through the normal path — undo the
			// final step's committed mark if any, roll the backend back,
			// release locks — and stop this transaction for good. Run
			// surfaces the recorded error.
			if v.lastGranted {
				r.txs[tx].committed.Store(false)
			}
			r.abortTx(tx)
			r.kickParked()
			if v.lastGranted {
				r.committing.Add(-1)
			}
			return false
		}
		if v.lastGranted {
			// Commit order matters: the backend discards the undo log while
			// locks are still held, then the scheduler releases them, then
			// parked requests are re-offered; only then may the breaker
			// resume (committing). The sequence runs on the commit
			// pipeline's lane — inline for a lone committer, on the lane
			// driver for a group.
			r.gc.Enqueue(tx)
		}
	}
	return false
}

// request decides one step on the calling user's goroutine under the
// shard's latch, parking it when the scheduler says Delay.
//
//optcc:hotpath
func (r *shardedRun) request(ss *shardState, tx, idx int, reply chan verdict) verdict {
	ss.mu.Lock()
	v, decided, kick := r.decide(ss, tx, idx)
	if !decided {
		// Register, then re-offer once inside the same latch hold: a
		// release that slipped in between the Delay and the registration
		// read nParked == 0 and woke nobody.
		//cclint:ignore hotpath the parked list grows only on the Delay path, amortized
		ss.parked = append(ss.parked, request{tx: tx, idx: idx, reply: reply})
		ss.nParked.Add(1)
		var again bool
		v, decided, again = r.decide(ss, tx, idx)
		kick = kick || again
		if decided {
			ss.parked = ss.parked[:len(ss.parked)-1]
			ss.nParked.Add(-1)
		}
	}
	ss.mu.Unlock()
	if kick {
		//cclint:ignore hotpath only after an abort or a fresh wound
		r.kickParked()
	}
	if !decided {
		//cclint:ignore hotpath the request is parked; the user blocks next
		r.maybeBreak()
		v = <-reply
	}
	return v
}

// decide offers one request to the scheduler; the caller holds ss's latch.
// kick reports that state other parked requests may wait on has changed —
// an abort released locks, or a fresh wound wants honouring — and the
// caller must kickParked once it has unlocked.
//
//optcc:hotpath
func (r *shardedRun) decide(ss *shardState, tx, idx int) (v verdict, decided, kick bool) {
	if !r.admit(tx) {
		return verdict{aborted: true, decided: time.Now()}, true, true
	}
	//cclint:ignore hotpath the scheduler decision is the measured work itself
	d := r.cs.Try(core.StepID{Tx: tx, Idx: idx})
	kick = r.collectWounds()
	now := time.Now()
	switch d {
	case online.Grant:
		// A transaction wounded by its own request's side effects is
		// honoured on its next request, not this grant.
		return r.granted(ss, tx, idx, now), true, kick
	case online.AbortTx:
		//cclint:ignore hotpath abort path
		r.abortTx(tx)
		return verdict{aborted: true, decided: now}, true, true
	}
	return verdict{}, false, kick
}

// admit aborts tx instead of offering its request when a wound is pending;
// otherwise it marks the transaction in flight.
//
//optcc:hotpath
func (r *shardedRun) admit(tx int) bool {
	st := &r.txs[tx]
	if st.wounded.Load() {
		st.wounded.Store(false)
		//cclint:ignore hotpath abort path
		r.abortTx(tx)
		return false
	}
	if !st.inFlight.Load() {
		st.inFlight.Store(true)
		r.inFlight.Add(1)
	}
	return true
}

// granted logs a grant under ss's latch. The grant of a final step only
// marks the transaction committed; the commit itself runs later, on the
// user goroutine and its commit lane.
//
//optcc:hotpath
func (r *shardedRun) granted(ss *shardState, tx, idx int, now time.Time) verdict {
	st := &r.txs[tx]
	last := idx == len(r.sys.Txs[tx].Steps)-1
	if last {
		r.committing.Add(1)
		st.committed.Store(true)
		st.inFlight.Store(false)
		r.inFlight.Add(-1)
	}
	//cclint:ignore hotpath presized to the shard's conflict-free request count; restarts overflow into amortized growth
	ss.log = append(ss.log, grant{stamp: r.stamp.Add(1), tx: int32(tx), idx: int32(idx), attempt: st.restarts.Load()})
	return verdict{decided: now, lastGranted: last}
}

// collectWounds marks the transactions the last decision wounded and
// reports whether any mark is new. Only NEW wounds are worth a kick: a
// parked request under wound-wait re-reports its wounded blockers on every
// retry, and kicking for those would make kicks and retries feed each
// other.
//
//optcc:hotpath
func (r *shardedRun) collectWounds() (fresh bool) {
	//cclint:ignore hotpath scheduler call; nil on the schedulers that never wound
	for _, w := range r.cs.Wounded() {
		if w < 0 || w >= len(r.txs) {
			continue
		}
		if st := &r.txs[w]; !st.committed.Load() && !st.wounded.Load() && st.wounded.CompareAndSwap(false, true) {
			fresh = true
		}
	}
	return fresh
}

// abortTx rolls the backend back and only then notifies the scheduler, so
// the victim's locks are released after its dying writes are gone. Every
// caller aborts a transaction that is either issuing this very request or
// parked (and just removed from its list), so the rollback cannot race with
// the victim's own step execution.
func (r *shardedRun) abortTx(tx int) {
	if r.cfg.Backend != nil {
		r.cfg.Backend.Rollback(tx)
	}
	r.cs.Abort(tx)
	st := &r.txs[tx]
	st.restarts.Add(1)
	if st.inFlight.Swap(false) {
		r.inFlight.Add(-1)
	}
	r.aborts.Add(1)
}

// kickParked re-offers the parked requests of every shard that has any,
// one latch at a time, until a pass neither aborts nor wounds anybody
// (grants take locks, they never free one). Callers hold no latch.
func (r *shardedRun) kickParked() {
	for again := true; again; {
		again = false
		for _, ss := range r.shards {
			if ss.nParked.Load() > 0 && r.retryParked(ss) {
				again = true
			}
		}
	}
}

// retryParked re-offers one shard's parked requests under its latch, in
// chunks of at most Config.Batch through the batch path, and replies to the
// decided ones. It reports whether the caller must kick again.
func (r *shardedRun) retryParked(ss *shardState) (kick bool) {
	ss.mu.Lock()
	kept := ss.parked[:0]
	for start := 0; start < len(ss.parked); start += r.batch {
		chunk := ss.parked[start:min(start+r.batch, len(ss.parked))]
		if len(chunk) > 1 {
			var again bool
			kept, again = r.decideBatch(ss, chunk, kept)
			kick = kick || again
			continue
		}
		v, decided, again := r.decide(ss, chunk[0].tx, chunk[0].idx)
		kick = kick || again
		if decided {
			v.parked = true
			chunk[0].reply <- v
		} else {
			kept = append(kept, chunk[0])
		}
	}
	clear(ss.parked[len(kept):])
	ss.parked = kept
	ss.nParked.Store(int32(len(kept)))
	ss.mu.Unlock()
	return kick
}

// decideBatch decides a chunk of parked requests (distinct transactions,
// all on ss, latch held) in one scheduler critical section. Wounded
// requesters abort before the batch is offered; the rest go through
// online.TryBatch and the bookkeeping mirrors decide exactly. Replies go
// out only after the whole chunk's bookkeeping (wounds included) is done: a
// granted user's next request must not race ahead of the wounds its own
// grant produced. Undecided requests are appended to kept, which may alias
// the list chunk is cut from (it never overtakes the read position).
func (r *shardedRun) decideBatch(ss *shardState, chunk, kept []request) (_ []request, kick bool) {
	ids, slots, vs := ss.ids[:0], ss.slots[:0], ss.verdicts[:0]
	for i, p := range chunk {
		var v verdict
		if r.admit(p.tx) {
			ids = append(ids, core.StepID{Tx: p.tx, Idx: p.idx})
			slots = append(slots, i)
		} else {
			v, kick = verdict{aborted: true, decided: time.Now()}, true
		}
		vs = append(vs, v)
	}
	ss.ids, ss.slots, ss.verdicts = ids, slots, vs
	var ds []online.Decision
	if len(ids) > 0 {
		ds = online.TryBatch(r.cs, ids)
	}
	kick = r.collectWounds() || kick
	now := time.Now()
	for k, d := range ds {
		p := chunk[slots[k]]
		switch d {
		case online.Grant:
			vs[slots[k]] = r.granted(ss, p.tx, p.idx, now)
		case online.AbortTx:
			r.abortTx(p.tx)
			vs[slots[k]], kick = verdict{aborted: true, decided: now}, true
		}
	}
	for i, p := range chunk {
		if v := vs[i]; !v.decided.IsZero() {
			v.parked = true
			p.reply <- v
		} else {
			kept = append(kept, p)
		}
	}
	return kept, kick
}

func (r *shardedRun) parkedTotal() (n int64) {
	for _, ss := range r.shards {
		n += int64(ss.nParked.Load())
	}
	return n
}

// maybeBreak wakes the breaker when every in-flight transaction may be
// parked. Called after whatever can make that true: a request parking, a
// commit group retiring.
func (r *shardedRun) maybeBreak() {
	if p := r.parkedTotal(); p > 0 && p >= r.inFlight.Load() {
		select {
		case r.breakCh <- struct{}{}:
		default:
		}
	}
}

// tryBreak aborts a victim when every in-flight transaction is parked. It
// runs on the breaker goroutine only and must stay cheap when there is no
// deadlock: atomic prechecks gate it, its scratch is reused, and latches
// are taken one at a time. A transaction has at most one outstanding
// request, so the parked lists never name one twice, and a parked
// transaction is in flight — the run is stuck exactly when the lists hold
// as many transactions as are in flight. The shard-by-shard snapshot can go
// stale if a request unparks mid-scan; the worst case is one spurious
// victim abort, which the restart machinery absorbs.
func (r *shardedRun) tryBreak() {
	if r.committing.Load() > 0 {
		return // a pending commit will kick and may unblock everything
	}
	if flying := r.inFlight.Load(); flying == 0 || r.parkedTotal() < flying {
		return
	}
	r.stuck = r.stuck[:0]
	for _, ss := range r.shards {
		if ss.nParked.Load() > 0 {
			ss.mu.Lock()
			for _, p := range ss.parked {
				r.stuck = append(r.stuck, p.tx)
			}
			ss.mu.Unlock()
		}
	}
	if len(r.stuck) == 0 || int64(len(r.stuck)) < r.inFlight.Load() {
		return
	}
	victim, ok := r.cs.Victim(r.stuck)
	if !ok || !containsInt(r.stuck, victim) {
		victim = r.stuck[0]
	}
	reply := r.unpark(victim)
	if reply == nil {
		return // the victim unparked meanwhile; no deadlock after all
	}
	r.breaks.Add(1)
	r.abortTx(victim)
	reply <- verdict{aborted: true, parked: true, decided: time.Now()}
	r.kickParked()
}

// unpark removes tx's parked request and returns its reply channel, or nil
// when tx is not parked.
func (r *shardedRun) unpark(tx int) chan verdict {
	for _, ss := range r.shards {
		if ss.nParked.Load() == 0 {
			continue
		}
		ss.mu.Lock()
		for i, p := range ss.parked {
			if p.tx == tx {
				ss.parked = append(ss.parked[:i], ss.parked[i+1:]...)
				ss.nParked.Add(-1)
				ss.mu.Unlock()
				return p.reply
			}
		}
		ss.mu.Unlock()
	}
	return nil
}

// project merges the shard logs by stamp and keeps each committed
// transaction's final attempt — Metrics.Output with the meaning
// projectFinal gives it on the central engine. A committed transaction's
// restart count still names the attempt that committed.
func (r *shardedRun) project() core.Schedule {
	h := make(core.Schedule, r.stamp.Load())
	for i := range h {
		h[i].Tx = -1
	}
	for _, ss := range r.shards {
		for _, g := range ss.log {
			if st := &r.txs[g.tx]; st.committed.Load() && g.attempt == st.restarts.Load() {
				h[g.stamp-1] = core.StepID{Tx: int(g.tx), Idx: int(g.idx)}
			}
		}
	}
	kept := h[:0]
	for _, id := range h {
		if id.Tx >= 0 {
			kept = append(kept, id)
		}
	}
	return kept
}
