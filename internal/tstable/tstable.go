// Package tstable provides the atomic timestamp table behind the natively
// concurrent timestamp-ordering scheduler (online.ConcurrentTO), and the
// commit stamps of online.ConcurrentOCC and the write claims of
// online.ConcurrentMV.
//
// Timestamp ordering needs two counters per variable — the largest
// timestamp that ever read it and the largest that ever wrote it — and its
// whole hot path is "compare my timestamp against them, then raise them".
// A single-threaded TO keeps them in maps behind the scheduler's implicit
// serialization; this table makes them safe for the concurrent runtime
// without any mutex:
//
//   - Entries live in an internal/vartab table built once from the run's
//     declared variables: the schedulers find one by variable number (At,
//     one slice index), a caller holding only a name by one lock-free read
//     of an immutable map (Entry), and an undeclared variable falls back
//     to vartab's sync.Map. Reset zeroes the timestamps so a table can be
//     reused across runs over the same variable set.
//   - An Entry's read/write timestamps are atomics updated by a CAS
//     max-loop (MaxRead/MaxWrite): concurrent updaters race forward only,
//     so per-variable timestamps are monotonically non-decreasing — the
//     invariant every TO argument rests on.
package tstable

import (
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/vartab"
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

// Table is the timestamp table. Construct with New; the zero value is
// unusable.
type Table struct{ tab *vartab.Table[Entry] }

// New builds a table for the given variable set. All timestamps start at
// zero. The shards argument is ignored — the table is one slab, not a
// partition — and stays only because the bench module still passes it.
func New(vars []core.Var, shards int) *Table {
	return &Table{tab: vartab.New[Entry](vars)}
}

// Entry returns the timestamp entry of v, creating a fallback entry if v
// was not declared at construction. The declared-variable path is
// lock-free: one immutable map lookup.
//
//optcc:hotpath
func (t *Table) Entry(v core.Var) *Entry { return t.tab.Slot(v) }

// At returns the entry of vars[i], for the distinct vars the table was
// built from (core.System.Vars; i is a core.System.VarIDs number): one
// slice index, no hash.
//
//optcc:hotpath
func (t *Table) At(i int32) *Entry { return t.tab.At(i) }

// Reset zeroes every timestamp (declared and fallback entries), preserving
// the entry layout. Not safe for use concurrently with Entry updates; call
// it between runs, as Begin does.
func (t *Table) Reset() {
	t.tab.Range(func(_ core.Var, e *Entry) bool {
		e.read.Store(0)
		e.write.Store(0)
		return true
	})
}
