package lockmgr

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/txtab"
	"optcc/internal/vartab"
)

// ShardedTable is a concurrent lock table: variables are hash-partitioned
// across per-shard Tables, each guarded by its own mutex, so lock traffic on
// independent variables never serializes. Uncontended exclusive locks take a
// lock-free fast path (one CAS, no mutex); the first contended or shared
// access to a variable escalates it permanently into its shard's Table,
// which supplies queueing, upgrades, and the deadlock policies.
//
// Birth timestamps come from one global atomic clock, so wound-wait and
// wait-die age priorities are consistent across shards. The waits-for graph
// and deadlock detection operate on the union of the per-shard graphs,
// where cross-shard cycles live (each edge is intra-shard because every
// variable belongs to exactly one shard, but a cycle may thread through
// several shards via multi-shard transactions).
//
// Concurrency contract: distinct transactions may drive the table from
// distinct goroutines concurrently; operations on behalf of one transaction
// must not overlap with each other (the same per-transaction discipline the
// schedulers and simulator already follow).
//
// A transaction enters a shard's Table lazily: it is registered there,
// and its bit set in its touched-shard set, the first time it reaches that
// shard's slow path — its own slow-path Acquire or the escalation that
// adopts its fast hold. ReleaseAll and Forget then lock only the shards in
// that set, so a transaction whose every lock took the fast path commits
// without taking a shard mutex.
type ShardedTable struct {
	policy Policy
	shards []tableShard
	// vars holds every variable's fast slot. The variables named to
	// Declare sit in its slab in that order (AcquireAt finds one by its
	// number, one slice index) and in its immutable map (Acquire finds one
	// by name, one map read); neither boxes or allocates.
	vars *vartab.Table[fastSlot]
	// txs holds every transaction's state (internal/txtab), found by its
	// id with one atomic load and two indexes.
	txs *txtab.Table[txState]

	// clock is the birth clock, written by every registration; it sits on
	// a cache line of its own, away from the fields above that every
	// request reads.
	_     [txtab.LineSize - 8]byte
	clock atomic.Int64
	_     [txtab.LineSize - 8]byte
}

// txState is one transaction's table state: its birth timestamp (0 =
// unset; timestamps start at 1), its fast-path lock set, and the bitset of
// the shards whose Table may hold state for it (one bit per shard, the
// words of a chunk of slots in one backing array).
type txState struct {
	birth   atomic.Int64
	fast    fastSet
	touched []atomic.Uint64
}

// touchedBit locates bit si of ts's touched-shard set.
func (ts *txState) touchedBit(si int) (*atomic.Uint64, uint64) {
	return &ts.touched[si/64], uint64(1) << (si % 64)
}

// touches reports whether shard si is in ts's touched-shard set.
func (ts *txState) touches(si int) bool {
	w, bit := ts.touchedBit(si)
	return w.Load()&bit != 0
}

type tableShard struct {
	mu sync.Mutex
	t  *Table
}

// fastSlot is the lock-free fast-path state of one variable.
// state encodings: 0 = free (fast regime), tx+1 = exclusively held by tx
// (fast regime), escalated = permanently in the shard Table's slow path.
// A declared slot also knows its variable's name and shard (set by
// Declare, read-only afterwards), so a request by number reaches the
// shard Table without hashing the name; an undeclared slot leaves them
// zero and its callers pass the name.
type fastSlot struct {
	state atomic.Int64
	v     core.Var
	shard int32
}

const escalated = -1

//optcc:hotpath
func encTx(tx TxID) int64 { return int64(tx) + 1 }

//optcc:hotpath
func decTx(st int64) TxID { return TxID(st - 1) }

// fastSet tracks the slots a transaction holds via the fast path, so
// ReleaseAll can free them without finding them again. The first few
// slots live in an inline array — transactions rarely fast-hold more — so
// the steady-state add/remove/drain cycle allocates nothing; the overflow
// slice keeps its capacity across a transaction's attempts.
type fastSet struct {
	mu   sync.Mutex
	n    int
	arr  [4]*fastSlot
	over []*fastSlot
}

// add records a fast-held slot. Caller holds fs.mu. Callers never add a
// slot twice: the fast path adds only on a winning CAS, and a reentrant
// grant returns before reaching here.
//
//optcc:hotpath
func (fs *fastSet) add(sl *fastSlot) {
	if fs.n < len(fs.arr) {
		fs.arr[fs.n] = sl
		fs.n++
		return
	}
	//cclint:ignore hotpath overflow beyond the inline array is the rare many-locks case; capacity is kept across attempts
	fs.over = append(fs.over, sl)
}

// remove drops one occurrence of sl (a no-op if absent). Caller holds
// fs.mu.
//
//optcc:hotpath
func (fs *fastSet) remove(sl *fastSlot) {
	for i := 0; i < fs.n; i++ {
		if fs.arr[i] == sl {
			fs.n--
			fs.arr[i] = fs.arr[fs.n]
			fs.arr[fs.n] = nil
			return
		}
	}
	for i, o := range fs.over {
		if o == sl {
			last := len(fs.over) - 1
			fs.over[i] = fs.over[last]
			fs.over[last] = nil
			fs.over = fs.over[:last]
			return
		}
	}
}

// drain visits every tracked slot and empties the set, keeping the
// overflow capacity. Caller holds fs.mu.
func (fs *fastSet) drain(fn func(sl *fastSlot)) {
	for i := 0; i < fs.n; i++ {
		fn(fs.arr[i])
		fs.arr[i] = nil
	}
	fs.n = 0
	for i, o := range fs.over {
		fn(o)
		fs.over[i] = nil
	}
	fs.over = fs.over[:0]
}

// NewShardedTable returns a sharded lock table with the given deadlock
// policy and shard count (minimum 1).
func NewShardedTable(policy Policy, shards int) *ShardedTable {
	if shards < 1 {
		shards = 1
	}
	words := (shards + 63) / 64
	st := &ShardedTable{
		policy: policy,
		shards: make([]tableShard, shards),
		vars:   vartab.New[fastSlot](nil),
		txs: txtab.New(func(slots []txState) {
			bits := make([]atomic.Uint64, len(slots)*words)
			for i := range slots {
				slots[i].touched = bits[i*words : (i+1)*words : (i+1)*words]
			}
		}),
	}
	for i := range st.shards {
		st.shards[i].t = NewTable(policy)
	}
	return st
}

// Policy returns the table's deadlock policy.
func (s *ShardedTable) Policy() Policy { return s.policy }

// Reserve creates the state of transaction ids [0, n) up front, so no
// transaction of a system of n pays the first touch of its slot's chunk.
// It is a pre-size only: any other id gets its state on first use
// (ConcurrentStrict2PL calls it from Begin with the system's transaction
// count).
func (s *ShardedTable) Reserve(n int) { s.txs.Grow(n) }

// Declare builds the fast slots of vars up front (internal/vartab: one
// slab in vars order under one immutable map, duplicates folded), each
// knowing its name and shard, so finding a declared variable's slot is one
// slice index by its position in vars (AcquireAt) or one lock-free map
// read by name (Acquire). Variables outside the declared set keep working
// through vartab's fallback. Call it once, before the table is driven
// (ConcurrentStrict2PL calls it from Begin with the system's Vars).
func (s *ShardedTable) Declare(vars []core.Var) {
	s.vars = vartab.New[fastSlot](vars)
	for i, v := range vars {
		sl := s.vars.At(int32(i))
		sl.v, sl.shard = v, int32(s.ShardOf(v))
	}
}

// Reset returns the table to its just-declared state, keeping its
// variable and transaction slots: every lock, queue, birth, fast hold and
// touched shard is dropped, every variable's slot is free and back in the
// fast regime, and the birth clock restarts. Not safe for use
// concurrently with any other method; call it between runs
// (ConcurrentStrict2PL.Begin does when it sees the same system again).
func (s *ShardedTable) Reset() {
	s.clock.Store(0)
	for i := range s.shards {
		s.shards[i].t = NewTable(s.policy)
	}
	s.vars.Range(func(_ core.Var, sl *fastSlot) bool {
		sl.state.Store(0)
		return true
	})
	s.txs.Range(func(_ int, ts *txState) bool {
		ts.birth.Store(0)
		ts.fast.mu.Lock()
		ts.fast.drain(func(*fastSlot) {})
		ts.fast.mu.Unlock()
		for i := range ts.touched {
			ts.touched[i].Store(0)
		}
		return true
	})
}

// NumShards returns the shard count.
func (s *ShardedTable) NumShards() int { return len(s.shards) }

// ShardOf returns the shard owning variable v.
func (s *ShardedTable) ShardOf(v core.Var) int { return ShardOfVar(v, len(s.shards)) }

// ShardOfVar hash-partitions a variable across n shards: inlined FNV-1a so
// the hot paths (every Acquire/Release and every latch lookup) allocate
// nothing. This is THE partition function — every natively concurrent
// scheduler in online and the KV backend use it too, so latch, lock-shard
// and storage-shard ownership always agree.
//
//optcc:hotpath
func ShardOfVar(v core.Var, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Register assigns the transaction its birth timestamp from the global
// clock; it is registered with a shard when it first enters that shard's
// slow path (enter). Re-registering keeps the original timestamp,
// preserving wound-wait/wait-die progress guarantees.
func (s *ShardedTable) Register(tx TxID) {
	s.register(s.state(tx))
}

// register stamps ts's birth unless it has one; the CAS keeps the first
// registration's timestamp under races.
//
//optcc:hotpath
func (s *ShardedTable) register(ts *txState) {
	if ts.birth.Load() == 0 {
		ts.birth.CompareAndSwap(0, s.clock.Add(1))
	}
}

// state returns tx's state, creating it on first use.
//
//optcc:hotpath
func (s *ShardedTable) state(tx TxID) *txState { return s.txs.Slot(int(tx)) }

// enter makes shard si's Table ready to hold state for tx: tx is
// registered there with its global birth and gets bit si of its
// touched-shard set. Caller holds shard si's mutex.
func (s *ShardedTable) enter(si int, tx TxID) {
	ts := s.state(tx)
	if ts.touches(si) {
		return
	}
	s.shards[si].t.RegisterAt(tx, ts.birth.Load())
	w, bit := ts.touchedBit(si)
	// Other bits of the word change concurrently (escalations enter tx
	// under other shards' mutexes), hence the CAS loop.
	for old := w.Load(); !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
}

// lockedShards calls fn, under each shard's mutex, for every shard in
// ts's touched-shard set: every shard whose Table may hold state for it.
func (s *ShardedTable) lockedShards(ts *txState, fn func(si int, t *Table)) {
	for wi := range ts.touched {
		for b := ts.touched[wi].Load(); b != 0; b &= b - 1 {
			si := wi*64 + bits.TrailingZeros64(b)
			sh := &s.shards[si]
			sh.mu.Lock()
			fn(si, sh.t)
			sh.mu.Unlock()
		}
	}
}

// escalate moves v out of the fast regime into shard si's Table. Caller
// holds the shard mutex. If a fast-path owner loses the race, it is adopted
// into the Table so queueing and deadlock handling see it; its own release
// will then go through the slow path (the fast-release CAS fails).
//
// The owner is entered into the shard before the escalating CAS, not
// after: an owner whose release CAS fails has then already seen its
// touched bit, so its ReleaseAll locks this shard (waiting the adoption
// out) and releases the adopted hold. If the CAS loses instead, the entry
// is spurious and harmless — the bit only makes a later release visit a
// shard with nothing to release.
func (s *ShardedTable) escalate(sl *fastSlot, si int, v core.Var) {
	for {
		st := sl.state.Load()
		if st == escalated {
			return
		}
		if st > 0 {
			s.enter(si, decTx(st))
		}
		if sl.state.CompareAndSwap(st, escalated) {
			if st > 0 {
				s.shards[si].t.AdoptHolder(decTx(st), v, Exclusive)
			}
			return
		}
	}
}

// tryFast attempts the lock-free fast path for one request: a reentrant
// grant on a variable tx already fast-holds exclusively (which satisfies
// any requested mode, so no escalation is needed), or a single-CAS
// acquisition for an Exclusive request on a free fast-regime variable.
// ok=false means the request must go through the owning shard's Table.
// It is THE fast path — Acquire and AcquireBatchInto both use it, so the
// batched and unbatched lock managers cannot drift apart.
//
//optcc:hotpath
func tryFast(tx TxID, ts *txState, sl *fastSlot, m Mode) (Result, bool) {
	st := sl.state.Load()
	if st == encTx(tx) {
		return Result{Status: Granted}, true
	}
	if m == Exclusive && st == 0 && sl.state.CompareAndSwap(0, encTx(tx)) {
		ts.fast.mu.Lock()
		ts.fast.add(sl)
		ts.fast.mu.Unlock()
		return Result{Status: Granted}, true
	}
	return Result{}, false
}

// Acquire requests a lock on v in mode m for tx. Exclusive requests on a
// variable still in the fast regime are a single CAS; everything else goes
// through the owning shard's Table under its mutex.
func (s *ShardedTable) Acquire(tx TxID, v core.Var, m Mode) Result {
	return s.acquire(tx, s.vars.Slot(v), v, -1, m)
}

// AcquireAt is Acquire of vars[i], for the vars named to Declare: the
// slot is one slice index, and a request that needs the shard Table takes
// the variable's name and shard from the slot instead of hashing it.
//
//optcc:hotpath
func (s *ShardedTable) AcquireAt(tx TxID, i int32, m Mode) Result {
	sl := s.vars.At(i)
	return s.acquire(tx, sl, sl.v, int(sl.shard), m)
}

// acquire is Acquire on v's slot sl; si is v's shard, or -1 to hash v for
// it when the request needs the shard Table.
//
//optcc:hotpath
func (s *ShardedTable) acquire(tx TxID, sl *fastSlot, v core.Var, si int, m Mode) Result {
	ts := s.state(tx)
	s.register(ts)
	if r, ok := tryFast(tx, ts, sl, m); ok {
		return r
	}
	if si < 0 {
		si = ShardOfVar(v, len(s.shards))
	}
	//cclint:ignore hotpath the slow path: the shard Table under its mutex
	return s.acquireSlow(tx, sl, v, si, m)
}

// acquireSlow decides a request the fast path could not grant in shard
// si's Table, under the shard mutex.
func (s *ShardedTable) acquireSlow(tx TxID, sl *fastSlot, v core.Var, si int, m Mode) Result {
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.enter(si, tx)
	s.escalate(sl, si, v)
	return sh.t.Acquire(tx, v, m)
}

// BatchReq is one request of an AcquireBatchInto. Its only outside
// consumer is the bench module's lock-table probe.
type BatchReq struct {
	Tx   TxID
	Var  core.Var
	Mode Mode
}

// AcquireBatchInto acquires a batch of lock requests for distinct
// transactions, appending the per-request results, aligned with reqs, to
// out[:0]. It is equivalent to calling Acquire on each request in order —
// requests are decided strictly in batch order, so two same-variable
// requests in one batch resolve exactly as they would sequentially (a
// later fast-path-eligible request can never jump ahead of an earlier
// conflicting one) — but one shard-mutex acquisition is shared across
// every consecutive run of slow-path requests on the same shard, and a
// caller holding a reusable result buffer pays no per-batch allocation.
// Its callers are online.ConcurrentStrict2PL.TryBatch and, outside this
// module, only the bench module's lock-table probe.
func (s *ShardedTable) AcquireBatchInto(out []Result, reqs []BatchReq) []Result {
	out = out[:0]
	held := -1
	for _, r := range reqs {
		ts := s.state(r.Tx)
		s.register(ts)
		sl := s.vars.Slot(r.Var)
		if res, ok := tryFast(r.Tx, ts, sl, r.Mode); ok {
			out = append(out, res)
			continue
		}
		si := s.ShardOf(r.Var)
		if si != held {
			if held >= 0 {
				s.shards[held].mu.Unlock()
			}
			s.shards[si].mu.Lock()
			held = si
		}
		s.enter(si, r.Tx)
		s.escalate(sl, si, r.Var)
		out = append(out, s.shards[si].t.Acquire(r.Tx, r.Var, r.Mode))
	}
	if held >= 0 {
		s.shards[held].mu.Unlock()
	}
	return out
}

// Release releases tx's lock on v and returns any requests granted as a
// consequence (always nil on the fast path: an uncontended variable has no
// waiters by construction).
func (s *ShardedTable) Release(tx TxID, v core.Var) []Grant {
	sl := s.vars.Slot(v)
	if sl.state.CompareAndSwap(encTx(tx), 0) {
		s.dropFast(tx, sl)
		return nil
	}
	s.dropFast(tx, sl)
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.Release(tx, v)
}

//optcc:hotpath
func (s *ShardedTable) dropFast(tx TxID, sl *fastSlot) {
	if ts := s.txs.Lookup(int(tx)); ts != nil {
		ts.fast.mu.Lock()
		ts.fast.remove(sl)
		ts.fast.mu.Unlock()
	}
}

// ReleaseAll releases every lock held by tx — fast-path holds by CAS,
// everything else through the shard tables that may hold state for it —
// and removes it from every wait queue. It returns all requests granted as
// a consequence (nil when nothing was waiting: the whole uncontended
// release is allocation-free, and takes no shard mutex when every lock
// took the fast path).
func (s *ShardedTable) ReleaseAll(tx TxID) []Grant {
	ts := s.txs.Lookup(int(tx))
	if ts == nil {
		return nil
	}
	ts.fast.mu.Lock()
	ts.fast.drain(func(sl *fastSlot) {
		// If the CAS fails the variable was escalated and the hold
		// adopted into its shard Table, which the escalation entered tx
		// into first; the sweep below releases it.
		sl.state.CompareAndSwap(encTx(tx), 0)
	})
	ts.fast.mu.Unlock()
	var grants []Grant
	s.lockedShards(ts, func(_ int, t *Table) {
		grants = append(grants, t.ReleaseAll(tx)...)
	})
	return grants
}

// HeldBy returns the current holders of v with their modes.
func (s *ShardedTable) HeldBy(v core.Var) map[TxID]Mode {
	if st := s.vars.Slot(v).state.Load(); st > 0 {
		return map[TxID]Mode{decTx(st): Exclusive}
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.HeldBy(v)
}

// QueueLen returns the number of waiters on v (zero while v is in the fast
// regime: contention is what ends it).
func (s *ShardedTable) QueueLen(v core.Var) int {
	if s.vars.Slot(v).state.Load() != escalated {
		return 0
	}
	sh := &s.shards[s.ShardOf(v)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.t.QueueLen(v)
}

// WaitsFor returns the global waits-for graph: the union of the per-shard
// graphs. Fast-regime variables contribute nothing (no waiters).
func (s *ShardedTable) WaitsFor() map[TxID][]TxID {
	out := map[TxID][]TxID{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for w, blockers := range sh.t.WaitsFor() {
			out[w] = mergeSorted(out[w], blockers)
		}
		sh.mu.Unlock()
	}
	return out
}

// DetectDeadlock searches the global waits-for graph for a cycle, catching
// cross-shard cycles no single shard can see.
func (s *ShardedTable) DetectDeadlock() ([]TxID, bool) {
	return FindCycle(s.WaitsFor())
}

// ChooseVictim returns the youngest transaction on the cycle.
func (s *ShardedTable) ChooseVictim(cycle []TxID) TxID {
	victim := cycle[0]
	for _, tx := range cycle[1:] {
		if s.birthOf(tx) > s.birthOf(victim) {
			victim = tx
		}
	}
	return victim
}

func (s *ShardedTable) birthOf(tx TxID) int64 {
	if ts := s.txs.Lookup(int(tx)); ts != nil {
		return ts.birth.Load()
	}
	return 0
}

// Forget removes per-transaction bookkeeping after everything is released;
// the birth timestamp is retained so restarts keep their age. The fast set
// is cleared in place (its storage is reused on restart) and the
// touched-shard set emptied.
func (s *ShardedTable) Forget(tx TxID) {
	ts := s.txs.Lookup(int(tx))
	if ts == nil {
		return
	}
	ts.fast.mu.Lock()
	ts.fast.drain(func(*fastSlot) {})
	ts.fast.mu.Unlock()
	s.lockedShards(ts, func(si int, t *Table) {
		t.Forget(tx)
		w, bit := ts.touchedBit(si)
		for old := w.Load(); !w.CompareAndSwap(old, old&^bit); old = w.Load() {
		}
	})
}

// Invariant checks every shard's safety invariants plus the fast path's —
// a fast-held variable, declared or not, must not also have holders in its
// shard Table — and the touched-shard sets': a transaction with held or
// queued state in a shard's Table has that shard's bit set.
func (s *ShardedTable) Invariant() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.t.Invariant()
		if err == nil {
			err = s.touchedInvariant(i)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	var bad error
	check := func(v core.Var, sl *fastSlot) bool {
		if sl.state.Load() > 0 {
			// A fast-held variable must have no holders in its shard Table
			// (its entire lock state lives in the slot until escalation).
			sh := &s.shards[s.ShardOf(v)]
			sh.mu.Lock()
			held := sh.t.HeldBy(v)
			sh.mu.Unlock()
			if len(held) != 0 {
				bad = fmt.Errorf("sharded table: fast-path invariant violated on %s", v)
				return false
			}
		}
		return true
	}
	s.vars.Range(check)
	return bad
}

// touchedInvariant checks shard si's Table against the touched-shard sets:
// every transaction with a held map or a queued request there must have
// bit si set. Caller holds shard si's mutex.
func (s *ShardedTable) touchedInvariant(si int) error {
	t := s.shards[si].t
	check := func(tx TxID) error {
		if ts := s.txs.Lookup(int(tx)); ts == nil || !ts.touches(si) {
			return fmt.Errorf("sharded table: tx %d has state in shard %d but not its touched bit", tx, si)
		}
		return nil
	}
	for tx := range t.held {
		if err := check(tx); err != nil {
			return err
		}
	}
	for _, e := range t.locks {
		for _, w := range e.queue {
			if err := check(w.tx); err != nil {
				return err
			}
		}
	}
	return nil
}
