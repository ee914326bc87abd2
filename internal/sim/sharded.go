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
// execution time. The user reads the clock only between stages and never
// under a latch: every timestamp is a monotonic offset from the run's
// epoch, and one stage's end is the next one's start. Only a sampled one
// transaction in samplePeriod times its stages; every other one reads the
// clock at its start, at its end and around each park, and counts its
// stages without timing them.
//
// A grant carries no run-global sequence number. Its position in its
// shard's log is its order, and project merges the logs at the end of the
// run (see there).
//
// A Delay parks the request in the shard's parked list and the user blocks
// on its own verdict channel. Nobody polls: whoever changes state another
// request may wait on — a commit's release, an abort, a
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
// when aborted, so its rollback races with nothing of its own).
//
// Each user keeps one run-state word that only it writes: idle (no job),
// running, waiting (on a contended latch or in the back-off sleep) or
// parked (from registration until its verdict arrives). Two rules read the
// words. A deadlock breaker fires when every user with a job is parked and
// picks a victim through the scheduler's global waits-for view; a commit in
// flight always has a running user (the inline committer, or the group
// commit's driver until its drain ends), so the breaker holds off while one
// may still unblock the waiters for free. And with more users than
// processors, a user hands its processor on at job end only when another
// user may be runnable mid-transaction but not running (see mustYield).
//
// A finishing transaction commits inline on its user goroutine: backend
// Commit, scheduler Commit, one kickParked. Only a backend that syncs
// (storage.GroupSyncer) gets a storage.GroupCommitter: finishing
// transactions enqueue into its one queue, and the queue's driver commits
// a whole group under one sync and releases the group's scheduler locks in
// one sweep (async lock release — commit processing leaves the follower's
// goroutine entirely). That is commit batching; decisions are never
// batched: a fresh request and every parked retry are each offered to the
// scheduler on their own through decide.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
	"optcc/internal/txtab"
)

// watchdogPeriod is the breaker goroutine's tick. Tests raise it to prove
// that no wake-up depends on the tick.
var watchdogPeriod = 250 * time.Microsecond

// shardState is one shard's decision latch and everything it guards: the
// parked list and the shard's grant log. nParked mirrors len(parked) so
// releasers can skip shards with nobody to wake without touching the
// latch; it sits on its own cache line because every commit reads it while
// the latch next to it changes hands.
type shardState struct {
	nParked atomic.Int32
	_       [txtab.LineSize - 4]byte

	mu     sync.Mutex // the decision latch
	parked []request
	log    []grant
}

// grant is one granted step in a shard's log. It is appended under the
// latch, so a shard's log is in decision order and so, because a variable
// lives in one shard, is every variable's part of it.
type grant struct {
	tx, idx, attempt int32
}

// txState is a transaction's run state. restarts (the aborts so far, which
// numbers the current attempt) and committed change only on behalf of the
// transaction itself (its one outstanding request, its abort, its commit);
// wounded is set by whoever observes the wound. Every request reads its
// own transaction's state and the job cursor hands neighbouring
// transactions to different users, so the run keeps the states in an
// interleaved internal/txtab.Dense: neighbours never share a cache line.
type txState struct {
	restarts  atomic.Int32
	wounded   atomic.Bool // abort at its next request
	committed atomic.Bool // final step granted, or served by the snapshot path
}

// A user's run state, the word in its userSlot.
const (
	stateIdle    int32 = iota // no job
	stateRunning              // has a job
	stateWaiting              // has a job; blocked on a contended latch or sleeping its back-off
	stateParked               // has a job; its request is parked until the verdict arrives
)

// userSlot is one user's run state on a cache line of its own: only the
// user writes it, at least twice per job, and the others read it at their
// job ends.
type userSlot struct {
	state atomic.Int32
	_     [txtab.LineSize - 4]byte
}

// mustYield reports whether user self hands its processor on at the end of
// a job. A run-to-completion user never blocks on an uncontended run, and a
// user it wakes waits in its processor's run queue, so without a yield the
// woken user would run only at the Go scheduler's 10 ms preemption tick.
// Never when the users fit on the procs processors. Otherwise yield when
// another user waits or is parked (it may have been woken already), or
// when at least procs other users have a job: then every other processor
// may be running one, and a woken user may be queued behind them. With
// fewer, some processor runs a non-user goroutine or none, and an idle
// processor steals the queued user. A user blocked inside a scheduler or
// backend mutex still counts as having a job, so it needs no state of its
// own.
func mustYield(users []userSlot, self, procs int) bool {
	if len(users) <= procs {
		return false
	}
	busy := 0
	for i := range users {
		if i == self {
			continue
		}
		switch users[i].state.Load() {
		case stateIdle:
		case stateRunning:
			if busy++; busy >= procs {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// stalled counts the users with a job and reports whether all of them are
// parked: then no commit is in flight and no request will be offered again
// unless the breaker aborts one.
func stalled(users []userSlot) (busy int, all bool) {
	parked := 0
	for i := range users {
		switch users[i].state.Load() {
		case stateIdle:
			continue
		case stateParked:
			parked++
		}
		busy++
	}
	return busy, busy > 0 && parked == busy
}

// terminal is one user goroutine's private state.
type terminal struct {
	id   int
	slot *userSlot
	um   *userMetrics
	rng  *rand.Rand
	// reply is the user's reusable verdict channel: a request that parks
	// gets exactly one verdict (the deadlock breaker's is that one too) and
	// the user reads it before its next request.
	reply chan verdict
	// smp picks the timed transactions; timed is the running one's pick.
	smp   sampler
	timed bool
	// mark is when the running stage began, as an offset from the run's
	// epoch: the end of the stage before it. An untimed transaction keeps it
	// only for a parked request, from when the request parked.
	mark time.Duration
}

type shardedRun struct {
	cfg *Config
	cs  online.ConcurrentScheduler
	sys *core.System
	sb  storage.SnapshotBackend
	// gc is the group-commit pipeline, built only for a backend that syncs
	// (nil: every commit runs inline on its user goroutine).
	gc          *storage.GroupCommitter
	epoch       time.Time // the run's start; timestamps are offsets from it
	maxRestarts int
	procs       int        // GOMAXPROCS at the run's start
	users       []userSlot // indexed by terminal id

	shards []*shardState
	// latch is each variable's decision latch, indexed by its number
	// (core.System.VarIDs): ids[tx][idx] picks a step's latch without
	// hashing its name.
	latch []*shardState
	ids   [][]int32
	txs   txtab.Dense[txState]
	// roTx marks the transactions the read-only fast path serves (nil when
	// the path is off).
	roTx []bool

	// nextJob is the job cursor: users claim the next transaction. Every
	// claim writes it, so it has a cache line of its own; next to the
	// slice headers every step reads, each claim would evict them from the
	// other processors.
	_       [txtab.LineSize - 8]byte
	nextJob atomic.Int64
	_       [txtab.LineSize - 8]byte

	aborts, breaks atomic.Int64

	breakCh chan struct{}
	stuck   []int // the breaker goroutine's scratch
	errs    runErrors
}

// runSharded runs the system on the concurrent engine and returns the
// metrics together with the run.
func runSharded(cfg Config, cs online.ConcurrentScheduler, sys *core.System, users, maxRestarts int) (*Metrics, *shardedRun, error) {
	m := &Metrics{}
	n := sys.NumTxs()
	um := newUserMetrics(sys, users, cfg.Backend != nil)
	slots := make([]userSlot, users)
	var am report.AllocMeter
	am.Start()
	cs.Begin(sys)

	r := &shardedRun{cfg: &cfg, cs: cs, sys: sys, maxRestarts: maxRestarts,
		procs: runtime.GOMAXPROCS(0), users: slots,
		txs: txtab.NewDense[txState](n), breakCh: make(chan struct{}, 1)}

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

	// Each variable's shard is looked up once per run, by name; from here
	// on a step finds its latch by its variable number. Each shard's grant
	// log is presized to the conflict-free request count of its variables;
	// restarts overflow into amortized growth (cold path).
	vars := sys.Vars()
	varShard := make([]int32, len(vars))
	for i, v := range vars {
		varShard[i] = int32(cs.ShardOf(v))
	}
	r.ids = sys.VarIDs()
	perShard := make([]int, cs.NumShards())
	for tx, ids := range r.ids {
		if r.roTx == nil || !r.roTx[tx] {
			for _, id := range ids {
				perShard[varShard[id]]++
			}
		}
	}
	r.shards = make([]*shardState, len(perShard))
	for i := range r.shards {
		r.shards[i] = &shardState{log: make([]grant, 0, perShard[i])}
	}
	r.latch = make([]*shardState, len(vars))
	for i, si := range varShard {
		r.latch[i] = r.shards[si]
	}

	// Group commit, for a backend that syncs (storage.GroupSyncer): the
	// pipeline exists to amortize one sync over a group. Finishing users
	// enqueue into its one queue; the driver (the first committer to find
	// it idle — a live user goroutine, so no wakeup handoff) commits a whole
	// group on the backend while its locks are still held, syncs once, then
	// runs release for the group. One queue, not one per shard: the syncs
	// serialize in the backend anyway, and every extra driver only splits
	// the group the others are forming. Every other backend commits inline
	// (commit).
	if _, ok := cfg.Backend.(storage.GroupSyncer); ok {
		r.gc = storage.NewGroupCommitter(cfg.Backend, r.release)
		// A failed sync fails the whole group: record it as the run error;
		// release still runs so locks free and the run drains.
		r.gc.OnFail(func(txs []int, err error) {
			r.errs.set(fmt.Errorf("sim: durable group commit of %d txs: %w", len(txs), err))
		})
	}

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
			seed := cfg.Seed + int64(user)*7919
			t := &terminal{id: user, slot: &r.users[user], um: &um[user], reply: make(chan verdict, 1),
				rng: rand.New(rand.NewSource(seed)), smp: newSampler(seed)}
			<-gate
			r.runUser(t)
		}(u)
	}
	r.epoch = time.Now()
	close(gate)
	wg.Wait()
	// Flush the commit pipeline before stopping the breaker: pending groups
	// still need their undo logs discarded and locks released, and the
	// metrics below must see a quiesced backend.
	if r.gc != nil {
		r.gc.Close()
		groups, txs := r.gc.Stats()
		m.CommitGroups, m.GroupCommits = int(groups), int(txs)
	}
	close(done)
	breakerWG.Wait()
	m.Elapsed = time.Since(r.epoch)
	if err := r.errs.get(); err != nil {
		return nil, nil, err
	}
	if err := durableErr(cfg.Backend); err != nil {
		return nil, nil, err
	}

	r.txs.Range(func(_ int, st *txState) {
		if st.committed.Load() {
			m.Committed++
		}
	})
	m.Aborts, m.DeadlockBreaks = int(r.aborts.Load()), int(r.breaks.Load())
	var err error
	if m.Output, err = r.project(); err != nil {
		return nil, nil, err
	}
	if m.Elapsed > 0 {
		m.Throughput = float64(m.Committed) / m.Elapsed.Seconds()
	}
	fillAllocStats(m, &am)
	mergeUserMetrics(m, um)
	fillSnapshotStats(m, cfg.Backend)
	fillDurableStats(m, cfg.Backend)
	return m, r, nil
}

// clock reads the time since the run's epoch. Since reads only the
// monotonic clock; time.Now reads the wall clock as well.
//
//optcc:hotpath
func (r *shardedRun) clock() time.Duration { return time.Since(r.epoch) }

// runUser is one terminal: it claims jobs from the cursor and runs each to
// completion — decide, execute, commit — on this goroutine. At each job end
// it goes idle, wakes the breaker if that left only parked users with a
// job, and yields if mustYield says so.
func (r *shardedRun) runUser(t *terminal) {
	cfg := r.cfg
	for {
		tx := int(r.nextJob.Add(1)) - 1
		if tx >= r.txs.Len() {
			return
		}
		t.slot.state.Store(stateRunning)
		t.timed = t.smp.next()
		start := r.clock()
		t.mark = start
		steps := r.sys.Txs[tx].Steps
		if r.roTx != nil && r.roTx[tx] {
			// Read-only fast path: one pinned snapshot, every step a
			// lock-free chain walk, nothing shared but atomics.
			snap := r.sb.SnapshotAcquire(t.id)
			for i := range steps {
				r.think(t)
				r.sb.SnapshotRead(t.id, steps[i].Var, snap)
				if cfg.ExecTime > 0 {
					time.Sleep(cfg.ExecTime)
				}
			}
			r.sb.SnapshotRelease(t.id)
			r.txs.At(tx).committed.Store(true)
		} else {
			for r.attempt(tx, t) && int(r.txs.At(tx).restarts.Load()) < r.maxRestarts {
				t.slot.state.Store(stateWaiting)
				time.Sleep(time.Duration(t.rng.Int63n(int64(50 * time.Microsecond))))
				t.slot.state.Store(stateRunning)
				if t.timed {
					t.mark = r.clock()
				}
			}
		}
		t.um.latency.Add(float64(r.clock() - start))
		t.slot.state.Store(stateIdle)
		r.maybeBreak()
		if mustYield(r.users, t.id, r.procs) {
			t.um.yields++
			runtime.Gosched()
		}
	}
}

// think sleeps the user's think time, if it has one; the next stage begins
// when the user wakes.
func (r *shardedRun) think(t *terminal) {
	if r.cfg.ThinkTime > 0 {
		time.Sleep(time.Duration(t.rng.Int63n(int64(r.cfg.ThinkTime) + 1)))
		if t.timed {
			t.mark = r.clock()
		}
	}
}

// attempt runs one attempt of tx — every step decided, executed and, after
// the last one, committed — and reports whether it was aborted and should
// restart. A timed transaction reads the clock once after each decision and
// once after each backend apply, each reading closing one stage and opening
// the next; an untimed one reads it only when a parked request wakes.
func (r *shardedRun) attempt(tx int, t *terminal) (restart bool) {
	for idx, id := range r.ids[tx] {
		r.think(t)
		v := r.request(r.latch[id], tx, idx, t)
		// Read off the latch: a parked request's wait ends when its user
		// wakes, an unparked one's decision when request returns.
		if v.parked || t.timed {
			now := r.clock()
			if v.parked {
				t.um.wait.Add(float64(now - t.mark))
			} else {
				t.um.sched.Add(float64(now - t.mark))
			}
			t.mark = now
		} else {
			t.um.sched.Skip()
		}
		if v.aborted {
			return true
		}
		if r.cfg.Backend != nil {
			if !applyBackend(r.cfg, tx, idx, &r.errs) {
				// Failed execution: abort through the normal path — undo
				// the final step's committed mark if any, roll the backend
				// back, release locks — and stop this transaction for
				// good. Run surfaces the recorded error.
				if v.lastGranted {
					r.txs.At(tx).committed.Store(false)
				}
				r.abortTx(tx)
				r.kickParked()
				return false
			}
			if t.timed {
				now := r.clock()
				t.um.exec.Add(float64(now - t.mark))
				t.mark = now
			} else {
				t.um.exec.Skip()
			}
		}
		if r.cfg.ExecTime > 0 {
			time.Sleep(r.cfg.ExecTime)
			if t.timed {
				t.mark = r.clock()
			}
		}
		if v.lastGranted {
			r.commit(tx)
		}
	}
	return false
}

// commit commits tx once its final step has executed. A syncing backend
// commits through the group-commit pipeline, which amortizes one sync over
// a group. Any other backend has nothing to amortize, so the user commits
// inline: an idle pipeline's singleton group was exactly this, plus a
// mutex, a CAS and a callback.
func (r *shardedRun) commit(tx int) {
	if r.gc != nil {
		r.gc.Enqueue(tx)
		return
	}
	if r.cfg.Backend != nil {
		r.cfg.Backend.Commit(tx)
	}
	r.release([]int{tx})
}

// release finishes the commit of txs after the backend has committed them.
// Order matters: the backend discarded the undo logs while the locks were
// still held; now the scheduler releases the locks, then parked requests
// are re-offered. It runs on the committing user, or on the pipeline's
// driver for a whole group; either is mid-job until it returns, so the
// breaker holds off until then.
func (r *shardedRun) release(txs []int) {
	for _, tx := range txs {
		r.cs.Commit(tx)
	}
	r.kickParked()
}

// request decides one step on the calling user's goroutine under the
// shard's latch, parking it when the scheduler says Delay. The user is
// waiting while the latch is contended and parked from registration until
// its verdict arrives. An untimed transaction's parked request starts its
// wait when it blocks.
//
//optcc:hotpath
func (r *shardedRun) request(ss *shardState, tx, idx int, t *terminal) verdict {
	if !ss.mu.TryLock() {
		t.slot.state.Store(stateWaiting)
		ss.mu.Lock()
		t.slot.state.Store(stateRunning)
	}
	v, decided, kick := r.decide(ss, tx, idx)
	if !decided {
		// Register, then re-offer once inside the same latch hold: a
		// release that slipped in between the Delay and the registration
		// read nParked == 0 and woke nobody.
		//cclint:ignore hotpath the parked list grows only on the Delay path, amortized
		ss.parked = append(ss.parked, request{tx: tx, idx: idx, reply: t.reply})
		ss.nParked.Add(1)
		t.slot.state.Store(stateParked)
		var again bool
		v, decided, again = r.decide(ss, tx, idx)
		kick = kick || again
		if decided {
			ss.parked = ss.parked[:len(ss.parked)-1]
			ss.nParked.Add(-1)
			t.slot.state.Store(stateRunning)
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
		if !t.timed {
			t.mark = r.clock()
		}
		v = <-t.reply
		t.slot.state.Store(stateRunning)
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
	st := r.txs.At(tx)
	if !r.admit(st, tx) {
		return verdict{aborted: true}, true, true
	}
	//cclint:ignore hotpath the scheduler decision is the measured work itself
	d := r.cs.Try(core.StepID{Tx: tx, Idx: idx})
	kick = r.collectWounds()
	switch d {
	case online.Grant:
		// A transaction wounded by its own request's side effects is
		// honoured on its next request, not this grant.
		return r.granted(ss, st, tx, idx), true, kick
	case online.AbortTx:
		//cclint:ignore hotpath abort path
		r.abortTx(tx)
		return verdict{aborted: true}, true, true
	}
	return verdict{}, false, kick
}

// admit aborts tx, whose run state is st, instead of offering its request
// when a wound is pending.
//
//optcc:hotpath
func (r *shardedRun) admit(st *txState, tx int) bool {
	if st.wounded.Load() {
		st.wounded.Store(false)
		//cclint:ignore hotpath abort path
		r.abortTx(tx)
		return false
	}
	return true
}

// granted logs a grant under ss's latch. The grant of a final step only
// marks the transaction committed; the commit itself runs later, on the
// user goroutine (or the group-commit driver).
//
//optcc:hotpath
func (r *shardedRun) granted(ss *shardState, st *txState, tx, idx int) verdict {
	last := idx == len(r.sys.Txs[tx].Steps)-1
	if last {
		st.committed.Store(true)
	}
	//cclint:ignore hotpath presized to the shard's conflict-free request count; restarts overflow into amortized growth
	ss.log = append(ss.log, grant{tx: int32(tx), idx: int32(idx), attempt: st.restarts.Load()})
	return verdict{lastGranted: last}
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
		if w < 0 || w >= r.txs.Len() {
			continue
		}
		if st := r.txs.At(w); !st.committed.Load() && !st.wounded.Load() && st.wounded.CompareAndSwap(false, true) {
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
	r.txs.At(tx).restarts.Add(1)
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

// retryParked re-offers one shard's parked requests under its latch, one at
// a time through decide, and replies to the decided ones. It reports
// whether the caller must kick again.
func (r *shardedRun) retryParked(ss *shardState) (kick bool) {
	ss.mu.Lock()
	kept := ss.parked[:0]
	for _, p := range ss.parked {
		v, decided, again := r.decide(ss, p.tx, p.idx)
		kick = kick || again
		if decided {
			v.parked = true
			p.reply <- v
		} else {
			kept = append(kept, p)
		}
	}
	clear(ss.parked[len(kept):])
	ss.parked = kept
	ss.nParked.Store(int32(len(kept)))
	ss.mu.Unlock()
	return kick
}

func (r *shardedRun) parkedTotal() (n int64) {
	for _, ss := range r.shards {
		n += int64(ss.nParked.Load())
	}
	return n
}

// maybeBreak wakes the breaker when every user with a job may be parked.
// Called after whatever can make that true: a request parking, a job
// ending.
func (r *shardedRun) maybeBreak() {
	if r.parkedTotal() == 0 {
		return
	}
	if _, all := stalled(r.users); all {
		select {
		case r.breakCh <- struct{}{}:
		default:
		}
	}
}

// tryBreak aborts a victim when every user with a job is parked. It runs on
// the breaker goroutine only and must stay cheap when there is no deadlock:
// the state words gate it, its scratch is reused, and latches are taken one
// at a time. A user has at most one outstanding request and is parked while
// it is registered, so the run is stuck exactly when the parked lists hold
// as many requests as there are users with a job. The shard-by-shard
// snapshot can go stale if a request unparks mid-scan; the worst case is
// one spurious victim abort, which the restart machinery absorbs.
func (r *shardedRun) tryBreak() {
	if _, all := stalled(r.users); !all {
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
	if busy, all := stalled(r.users); !all || len(r.stuck) < busy {
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
	reply <- verdict{aborted: true, parked: true}
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
				last := len(ss.parked) - 1
				copy(ss.parked[i:], ss.parked[i+1:])
				ss.parked[last] = request{} // drop the stale reply channel
				ss.parked = ss.parked[:last]
				ss.nParked.Add(-1)
				ss.mu.Unlock()
				return p.reply
			}
		}
		ss.mu.Unlock()
	}
	return nil
}

// project merges the shard logs into each committed transaction's final
// attempt — Metrics.Output with the meaning projectFinal gives it on the
// central engine. A committed transaction's restart count still names the
// attempt that committed.
//
// The merge is topological: it repeatedly takes any shard head whose step
// is the next one its transaction needs. So it keeps every shard log's
// order, and with it each variable's decision order, and every
// transaction's program order. Each grant happened at one instant under
// its latch, and real time is a linear extension of both orders, so the
// merge always completes; the result is conflict-equivalent to real-time
// grant order. A merge that stalls means a log broke that argument — an
// engine invariant violation, returned as an error naming the stuck heads.
func (r *shardedRun) project() (core.Schedule, error) {
	final := func(g grant) bool {
		st := r.txs.At(int(g.tx))
		return st.committed.Load() && g.attempt == st.restarts.Load()
	}
	n := 0
	for _, ss := range r.shards {
		for _, g := range ss.log {
			if final(g) {
				n++
			}
		}
	}
	h := make(core.Schedule, 0, n)
	next := make([]int32, r.txs.Len()) // each transaction's next step index
	heads := make([]int, len(r.shards))
	for progress := true; progress; {
		progress = false
		for s, ss := range r.shards {
			for ; heads[s] < len(ss.log); heads[s]++ {
				g := ss.log[heads[s]]
				if !final(g) {
					continue
				}
				if g.idx != next[g.tx] {
					break
				}
				h = append(h, core.StepID{Tx: int(g.tx), Idx: int(g.idx)})
				next[g.tx]++
				progress = true
			}
		}
	}
	if len(h) == n {
		return h, nil
	}
	var stuck strings.Builder
	for s, ss := range r.shards {
		if heads[s] < len(ss.log) {
			g := ss.log[heads[s]]
			fmt.Fprintf(&stuck, "; shard %d entry %d: tx %d step %d, tx at step %d", s, heads[s], g.tx, g.idx, next[g.tx])
		}
	}
	return nil, fmt.Errorf("sim: shard logs do not merge (%d of %d grants placed)%s", len(h), n, stuck.String())
}
