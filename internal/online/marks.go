package online

import (
	"sync/atomic"

	"optcc/internal/core"
)

// This file holds the per-variable mark entries behind the natively
// concurrent SGT and OCC schedulers. Each scheduler keeps its entries in
// an internal/vartab table built from the System's variables (Vars), like
// internal/tstable's timestamps: finding a step's entry is one slice index
// by its variable number (VarIDs), taken without any lock.
//
// What the entries hold differs per scheduler, and so does who may touch
// them:
//
//   - sgtEntry (ConcurrentSGT) keeps the variable's live reader and writer
//     incarnation lists plus the source-collection scratch. These are
//     plain slices with no synchronization of their own: the
//     ConcurrentScheduler contract decides every step of one variable
//     under the decision latch of its shard, so whichever goroutine reads
//     or mutates a variable's sgtEntry holds that latch, and the latch's
//     happens-before hands the lists from one holder to the next. Dead
//     incarnations (aborted, or committed and pruned from the graph) are
//     compacted out lazily on the variable's next visit.
//   - occEntry (ConcurrentOCC) is read across shards by validators, so
//     its writer-mark list is published copy-on-write through an atomic
//     pointer: the holder of the owning shard's latch builds a fresh slice
//     (compacting dead marks) and stores it; validators load a consistent
//     snapshot lock-free. Marks of concurrently-validating peers that
//     entered validation earlier are always visible in the snapshot — the
//     mark store precedes the peer's validation-epoch draw in the
//     sequentially-consistent atomic order.
type sgtEntry struct {
	readers []sgtNode
	writers []sgtNode
	srcBuf  []sgtNode // source-collection scratch, reused across Trys
}

// resetSGTEntry empties an entry's mark lists, keeping their capacity.
// Only safe between runs (Begin), when nothing is being decided.
func resetSGTEntry(_ core.Var, e *sgtEntry) bool {
	e.readers = e.readers[:0]
	e.writers = e.writers[:0]
	return true
}

// occWriterMark records one incarnation's first write of a variable: who,
// which epoch, and the grant stamp of that first write.
type occWriterMark struct {
	tx    int
	epoch int
	stamp int64
}

// occEntry holds one variable's copy-on-write writer-mark list.
type occEntry struct {
	writers atomic.Pointer[[]occWriterMark]
}

// resetOCCEntry drops an entry's writer-mark list. Only safe between runs
// (Begin).
func resetOCCEntry(_ core.Var, e *occEntry) bool {
	e.writers.Store(nil)
	return true
}
