package online

import (
	"fmt"
	"sync/atomic"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/tstable"
	"optcc/internal/txtab"
)

// SnapshotSource is implemented by schedulers whose semantics let the
// runtime serve read-only transactions from a storage snapshot instead of
// requesting grants: the scheduler orders read-write transactions by
// commit, so a transaction that writes nothing is serializable at any
// consistent committed snapshot and never needs to enter the grant
// machinery at all. The runtime (internal/sim) checks this marker together
// with storage.SnapshotBackend before enabling its read-only fast path.
type SnapshotSource interface {
	// ReadOnlySnapshots reports that read-only transactions may bypass the
	// scheduler entirely.
	ReadOnlySnapshots() bool
}

// wsEntry is one write claim a transaction holds: the variable's timestamp
// entry and the committed write timestamp the claim displaced, restored on
// abort.
type wsEntry struct {
	e    *tstable.Entry
	prev int64
}

// ConcurrentMV is the Hekaton-style multiversion/optimistic scheduler: the
// natively concurrent companion of ConcurrentTO for multiversion storage.
// Like cto its whole state is the sharded atomic timestamp table
// (internal/tstable) plus an atomic transaction-timestamp clock — no mutex
// on any path — but where TO only records timestamps, ConcurrentMV claims
// writes:
//
//   - A writer CAS-installs an uncommitted claim on its variable's entry
//     (the negative owner timestamp, the same tstable CAS idiom that keeps
//     per-variable timestamps monotone) and holds it to commit; the
//     storage layer installs the corresponding uncommitted version. A
//     second writer arriving at a claimed entry aborts immediately —
//     first-writer-wins replaces blocking, so there are no waits and no
//     deadlocks.
//   - A reader validates visibility against commit timestamps: it aborts
//     if the variable is claimed by another active writer (no dirty
//     reads) or was last committed by a younger transaction (its view
//     would be stale); otherwise it records its read timestamp so older
//     writers cannot invalidate it afterwards.
//   - Commit releases every claim to the transaction's own timestamp,
//     which becomes the variable's committed write timestamp; abort
//     restores what the claim displaced and restarts the transaction with
//     a fresh, strictly later timestamp, guaranteeing progress exactly as
//     in TO.
//
// Every conflict-graph edge therefore points from older to newer
// timestamp, so complete runs are conflict-serializable on any shard
// layout — the same composition argument as ConcurrentTO, with claims
// standing in for write timestamps until commit.
//
// Read-only transactions never reach the scheduler at all: ConcurrentMV
// implements SnapshotSource, and the runtime serves them from a pinned
// storage snapshot (storage.SnapshotBackend) with zero locks and zero
// shard-latch acquisitions. Write claims are held to commit, so writes
// execute strictly (no transaction overwrites or — via the read rule —
// reads an uncommitted value), which is what makes the committed write-set
// state equal the serial replay of the committed schedule
// (TestConcurrentMVReadMostlyStateMatchesReplay in internal/sim checks it).
type ConcurrentMV struct {
	base
	shards int

	sys   *core.System
	ids   [][]int32 // sys.VarIDs(): each step's index into table
	table *tstable.Table
	txs   txtab.Dense[mvTx]

	// clock is written by every transaction's first Try; it sits on a
	// cache line of its own, away from the fields above that every Try
	// reads.
	_     [txtab.LineSize - 8]byte
	clock atomic.Int64
	_     [txtab.LineSize - 8]byte
}

// mvTx is one transaction's scheduler state: its timestamp (0 =
// unassigned) and the write claims it holds, released at commit or abort.
type mvTx struct {
	ts atomic.Int64
	ws []wsEntry
}

// NewConcurrentMV returns a natively concurrent multiversion/optimistic
// scheduler over the given shard count (minimum 1).
func NewConcurrentMV(shards int) *ConcurrentMV {
	if shards < 1 {
		shards = 1
	}
	return &ConcurrentMV{shards: shards}
}

// Name implements Scheduler.
func (s *ConcurrentMV) Name() string { return fmt.Sprintf("mv(%d)", s.shards) }

// ReadOnlySnapshots implements SnapshotSource.
func (s *ConcurrentMV) ReadOnlySnapshots() bool { return true }

// Begin implements Scheduler. Re-beginning over the same system reuses the
// timestamp table and the write-claim slices instead of rebuilding them.
func (s *ConcurrentMV) Begin(sys *core.System) {
	s.clock.Store(0)
	if sys == s.sys && s.table != nil {
		s.table.Reset()
		s.txs.Range(func(_ int, st *mvTx) {
			st.ts.Store(0)
			st.ws = st.ws[:0]
		})
		return
	}
	s.sys = sys
	s.ids = sys.VarIDs()
	s.txs = txtab.NewDense[mvTx](sys.NumTxs())
	s.table = tstable.New(sys.Vars(), s.shards)
}

// Try implements Scheduler. Lock-free: one slice index by the step's
// variable number plus atomic loads and CASes; it never returns Delay —
// every conflict is resolved by aborting the requester.
func (s *ConcurrentMV) Try(id core.StepID) Decision {
	st := s.txs.At(id.Tx)
	ts := st.ts.Load()
	if ts == 0 {
		ts = s.clock.Add(1)
		st.ts.Store(ts)
	}
	step := s.sys.Step(id)
	e := s.table.At(s.ids[id.Tx][id.Idx])
	if conflict.Reads(step.Kind) {
		w := e.WriteTS()
		if w < 0 && w != -ts {
			return AbortTx // claimed by an active writer: no dirty read, no wait
		}
		if w > ts {
			return AbortTx // committed by a younger writer: stale view
		}
	}
	if conflict.Writes(step.Kind) {
		if ts < e.ReadTS() {
			return AbortTx // a younger reader saw the current version
		}
		for {
			w := e.WriteTS()
			if w == -ts {
				break // this transaction already holds the claim
			}
			if w < 0 {
				return AbortTx // first-writer-wins: another writer's claim
			}
			if w > ts {
				return AbortTx // committed by a younger writer
			}
			if e.CASWrite(w, -ts) {
				st.ws = append(st.ws, wsEntry{e: e, prev: w})
				break
			}
		}
	}
	if conflict.Reads(step.Kind) {
		e.MaxRead(ts)
	}
	return Grant
}

// TryBatch implements BatchTrier by deciding in order through Try. Its
// only consumer is the bench module's tracer.
func (s *ConcurrentMV) TryBatch(ids []core.StepID) []Decision {
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}

// Commit implements Scheduler: release every write claim to the
// transaction's own timestamp, which becomes the variable's committed
// write timestamp.
func (s *ConcurrentMV) Commit(tx int) {
	st := s.txs.At(tx)
	ts := st.ts.Load()
	for _, w := range st.ws {
		w.e.CASWrite(-ts, ts)
	}
	st.ws = st.ws[:0]
}

// Abort implements Scheduler: restore each claimed entry's previous
// committed write timestamp and restart the transaction with a fresh
// (strictly later) timestamp, which guarantees progress.
func (s *ConcurrentMV) Abort(tx int) {
	st := s.txs.At(tx)
	ts := st.ts.Load()
	if ts != 0 {
		for _, w := range st.ws {
			w.e.CASWrite(-ts, w.prev)
		}
	}
	st.ws = st.ws[:0]
	st.ts.Store(0)
}

// NumShards implements ConcurrentScheduler.
func (s *ConcurrentMV) NumShards() int { return s.shards }

// ShardOf implements ConcurrentScheduler.
func (s *ConcurrentMV) ShardOf(v core.Var) int { return shardOfVar(v, s.shards) }
