// Package tstable provides the sharded atomic timestamp table behind the
// natively concurrent timestamp-ordering scheduler (online.ConcurrentTO).
//
// Timestamp ordering needs two counters per variable — the largest
// timestamp that ever read it and the largest that ever wrote it — and its
// whole hot path is "compare my timestamp against them, then raise them".
// A single-threaded TO keeps them in maps behind the scheduler's implicit
// serialization; this table makes them safe for the concurrent runtime
// without any mutex:
//
//   - The variable set is fixed per run (transaction systems declare their
//     variables), so New pre-builds one plain map per shard from variable
//     to a heap-allocated Entry and never mutates the maps afterwards.
//     Lookups are pure reads of immutable maps — no lock, no sync.Map
//     overhead on the hot path. Reset zeroes the timestamps so a table can
//     be reused across runs over the same variable set.
//   - An Entry's read/write timestamps are atomics updated by a CAS
//     max-loop (MaxRead/MaxWrite): concurrent updaters race forward only,
//     so per-variable timestamps are monotonically non-decreasing — the
//     invariant every TO argument rests on.
//   - Shards are partitioned with lockmgr.ShardOfVar, the engine's single
//     partition function, so the table's layout agrees with the latch
//     partition and lock/storage ownership. (With immutable maps the shards
//     are a layout nicety, not a synchronization domain.)
//
// Variables outside the declared set (none in normal operation) fall back
// to a sync.Map so the table degrades safely instead of panicking.
package tstable

import (
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
)

// Entry holds one variable's timestamp pair. The zero value (both
// timestamps 0) means "never read, never written"; transaction timestamps
// start at 1, so 0 compares below every live timestamp.
type Entry struct {
	read  atomic.Int64
	write atomic.Int64
}

// ReadTS returns the largest timestamp that read the variable.
//
//optcc:hotpath
func (e *Entry) ReadTS() int64 { return e.read.Load() }

// WriteTS returns the largest timestamp that wrote the variable.
//
//optcc:hotpath
func (e *Entry) WriteTS() int64 { return e.write.Load() }

// MaxRead raises the read timestamp to at least ts (CAS max-loop; a losing
// CAS re-reads and retries only while ts is still ahead).
//
//optcc:hotpath
func (e *Entry) MaxRead(ts int64) { maxUpdate(&e.read, ts) }

// MaxWrite raises the write timestamp to at least ts.
//
//optcc:hotpath
func (e *Entry) MaxWrite(ts int64) { maxUpdate(&e.write, ts) }

// CASWrite installs new as the write timestamp iff it still holds old —
// the raw CAS behind the multiversion scheduler's first-writer-wins write
// claims (online.ConcurrentMV), which encodes an uncommitted claim as the
// negative owner timestamp and must release it to an exact value rather
// than a monotone max. Schedulers using CASWrite own the entry's write
// field's encoding outright and must not mix it with MaxWrite.
//
//optcc:hotpath
func (e *Entry) CASWrite(old, new int64) bool { return e.write.CompareAndSwap(old, new) }

//optcc:hotpath
func maxUpdate(a *atomic.Int64, ts int64) {
	for {
		cur := a.Load()
		if ts <= cur || a.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Table is the sharded timestamp table. Construct with New; the zero value
// is unusable.
type Table struct {
	shards []map[core.Var]*Entry
	extra  sync.Map // core.Var → *Entry, for undeclared variables only
}

// New builds a table for the given variable set, partitioned across the
// given shard count (minimum 1). All timestamps start at zero.
func New(vars []core.Var, shards int) *Table {
	if shards < 1 {
		shards = 1
	}
	t := &Table{shards: make([]map[core.Var]*Entry, shards)}
	for i := range t.shards {
		t.shards[i] = map[core.Var]*Entry{}
	}
	for _, v := range vars {
		t.shards[lockmgr.ShardOfVar(v, shards)][v] = &Entry{}
	}
	return t
}

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// Entry returns the timestamp entry of v, creating a fallback entry if v
// was not declared at construction. The declared-variable path is
// lock-free: one immutable map lookup.
//
//optcc:hotpath
func (t *Table) Entry(v core.Var) *Entry {
	if e, ok := t.shards[lockmgr.ShardOfVar(v, len(t.shards))][v]; ok {
		return e
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	if e, ok := t.extra.Load(v); ok {
		return e.(*Entry)
	}
	//cclint:ignore hotpath undeclared-variable fallback; unreachable when the run declares its variable set
	e, _ := t.extra.LoadOrStore(v, &Entry{})
	return e.(*Entry)
}

// Reset zeroes every timestamp (declared and fallback entries), preserving
// the entry layout. Not safe for use concurrently with Entry updates; call
// it between runs, as Begin does.
func (t *Table) Reset() {
	for _, m := range t.shards {
		for _, e := range m {
			e.read.Store(0)
			e.write.Store(0)
		}
	}
	t.extra.Range(func(_, v any) bool {
		e := v.(*Entry)
		e.read.Store(0)
		e.write.Store(0)
		return true
	})
}
