package storage

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/txtab"
	"optcc/internal/vartab"
)

// FsyncPolicy is when the disk backend forces its log to stable storage.
type FsyncPolicy int

const (
	// FsyncGroup (the default) defers the fsync to GroupSync, which the
	// GroupCommitter invokes once per drained group — one fsync covers
	// every commit record appended since the last sync, the classic group
	// commit amortization. The centralized runtime calls GroupSync after
	// each commit (a group of one), which degenerates to FsyncAlways.
	FsyncGroup FsyncPolicy = iota
	// FsyncAlways syncs inside every Commit: each transaction is durable
	// before its commit returns, at one fsync per transaction.
	FsyncAlways
	// FsyncNever leaves flushing to the OS; a clean Close still syncs.
	// Commits can be lost on a crash, but never torn: recovery still
	// admits only whole checksummed records.
	FsyncNever
)

// ParseFsyncPolicy maps the CLI spelling of a policy to its value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "group":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (known: always, group, never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "group"
	}
}

// GroupSyncer is the durability hook the GroupCommitter drives: after
// committing a group on the backend, it calls GroupSync once, making the
// whole group durable with a single fsync. A backend without the method is
// memory-only and the call is skipped.
type GroupSyncer interface {
	// GroupSync forces everything appended so far to stable storage. An
	// error means the group's durability is unknown — the committer
	// reports it for every member via OnFail.
	GroupSync() error
}

// DurabilityStats are the durable backend's counters, surfaced into
// sim.Metrics (Fsyncs, WALBytes, RecoveryNs, checkpoint counters) and
// ccsim's durability line.
type DurabilityStats struct {
	// Fsyncs counts successful syncs of the log.
	Fsyncs int64
	// WALBytes counts bytes appended to the log.
	WALBytes int64
	// WALTruncated counts torn or corrupt log tails recovery discarded
	// (at most one per OpenDisk, since scanning stops at the first).
	WALTruncated int64
	// SyncFailures counts fsyncs that returned an error.
	SyncFailures int64
	// RecoveryNs is the wall time of the last OpenDisk replay.
	RecoveryNs int64
	// RecoveryBytes counts the checkpoint + log bytes the last OpenDisk
	// actually replayed — with checkpointing this is log-since-checkpoint,
	// not log-since-birth.
	RecoveryBytes int64
	// Checkpoints counts completed fuzzy checkpoints (checkpoint.go).
	Checkpoints int64
	// CheckpointFailures counts failed checkpoint attempts (each retried
	// with backoff until CheckpointerOff).
	CheckpointFailures int64
	// CheckpointBytes counts bytes written to checkpoint files.
	CheckpointBytes int64
	// SegmentsRetired counts sealed segments unlinked behind a durable
	// checkpoint marker.
	SegmentsRetired int64
	// CheckpointerOff is the graceful-degradation health flag: true once
	// persistent checkpoint failures disabled the checkpointer. The commit
	// path is unaffected; the log simply stops being retired.
	CheckpointerOff bool
}

// DurableBackend is the optional durability extension of Backend: a store
// that persists committed transactions and can account for it. Implemented
// by *Disk.
type DurableBackend interface {
	Backend
	GroupSyncer
	// Err returns the sticky durability error, if any: once an append or
	// sync fails the store is poisoned — every subsequent ApplyStep and
	// GroupSync fails — because the log can no longer be trusted to match
	// memory. The runtime surfaces it as the run error.
	Err() error
	// DurabilityStats reports the durability counters.
	DurabilityStats() DurabilityStats
}

// diskTx is a transaction's slot in the disk backend's internal/txtab
// table: its locals, its deferred write set in order, and its own step
// counters, which Stats sums. Only the transaction's own steps and its
// commit touch it, so nothing in it is locked or atomic.
type diskTx struct {
	locals   []core.Value
	writes   []walWrite
	localBuf [txInline]core.Value
	writeBuf [txInline]walWrite

	reads, nwrites, rollbacks, byName int64
}

// newDiskTxs points each new slot's buffers at its inline arrays.
func newDiskTxs(slots []diskTx) {
	for i := range slots {
		slots[i].locals, slots[i].writes = slots[i].localBuf[:0], slots[i].writeBuf[:0]
	}
}

// finish empties c for the transaction's next attempt.
func (c *diskTx) finish() { c.locals, c.writes = c.locals[:0], c.writes[:0] }

// diskCell is one variable's committed value. Cells change only under
// Disk.mu, in commit order; a step reads one with a single atomic load.
type diskCell struct{ val atomic.Int64 }

// diskTable is the committed state: one cell per variable, in an
// internal/vartab table built whole by Reset and by recovery, so lookups
// need no lock. A variable whose first write comes from a commit gets its
// cell from the table's fallback, created under Disk.mu.
type diskTable = vartab.Table[diskCell]

// loadDiskTable returns a table holding db: t itself, its cells
// overwritten in place, when t has exactly db's variables (Reset before
// every run over one system), otherwise a new table laid out in sorted
// variable order (core.System.Vars order, so a bound step's number indexes
// it). When db is the shared initial state of the System b binds, the
// table is laid out from that System's variables and loaded by number,
// hashing no name. Overwriting is safe because no transaction is live
// during Reset and the caller holds Disk.mu, which every capture of the
// table takes. b may be nil.
func loadDiskTable(t *diskTable, db core.DB, b *binding) *diskTable {
	vars, vals := b.layout(db)
	switch {
	case vals != nil:
		if t == nil || !t.LaidOut(vars) {
			t = vartab.New[diskCell](vars)
		}
		for i, x := range vals {
			t.At(int32(i)).val.Store(int64(x))
		}
		return t
	case t == nil || !t.SameVars(db):
		t = vartab.New[diskCell](slices.Sorted(maps.Keys(db)))
	}
	t.Range(func(v core.Var, c *diskCell) bool {
		c.val.Store(int64(db[v]))
		return true
	})
	return t
}

// eachLocked visits every committed variable of t until fn returns false;
// the caller holds Disk.mu. Under it no cell changes, so the visit is an
// exact cut of the log.
func eachLocked(t *diskTable, fn func(v core.Var, val core.Value) bool) {
	t.Range(func(v core.Var, c *diskCell) bool { return fn(v, core.Value(c.val.Load())) })
}

// appendCellsLocked appends t's committed (variable, value) pairs to dst
// and returns it; the caller holds Disk.mu. A checkpoint capture reuses
// one dst, so copying a warm store's table allocates nothing.
func appendCellsLocked(dst []walWrite, t *diskTable) []walWrite {
	eachLocked(t, func(v core.Var, val core.Value) bool {
		dst = append(dst, walWrite{v: v, val: val})
		return true
	})
	return dst
}

// snapshotLocked copies t's committed state; the caller holds Disk.mu.
func snapshotLocked(t *diskTable) core.DB {
	db := make(core.DB, t.Declared())
	eachLocked(t, func(v core.Var, val core.Value) bool {
		db[v] = val
		return true
	})
	return db
}

// get reads v, whose committed cell is cell (nil: v has none yet), for
// c's transaction, counting the read: its own buffered write if any, else
// the committed value. A buffered write that found its cell matches by
// cell, since a variable's cell is its own for the table's life; one
// buffered by name (Put) matches by name.
//
//optcc:hotpath
func (c *diskTx) get(cell *diskCell, v core.Var) core.Value {
	c.reads++
	for i := len(c.writes) - 1; i >= 0; i-- {
		if w := &c.writes[i]; w.cell == cell && cell != nil || w.cell == nil && w.v == v {
			return w.val
		}
	}
	if cell != nil {
		return core.Value(cell.val.Load())
	}
	return 0
}

// Disk is the durable backend: a log-structured store whose only on-disk
// structure is the log itself — numbered append-only segment files of
// checksummed records (wal.go) — plus an in-memory table rebuilt from the
// log on open (recovery.go). There is no separate data store to keep
// consistent with the WAL; the committed prefix of the log IS the
// database, which is what makes crash recovery a pure replay.
//
// Execution is write-buffered: Put only accumulates in the transaction's
// write set; readers see their own writes, everyone else sees committed
// state. Commit appends one redo-only commit record carrying the write set
// and applies it atomically; Rollback discards the buffer without touching
// the log. An uncommitted write can never reach the log, so recovery never
// undoes one — which is what makes every scheduler recoverable, the
// non-strict ones (TO/OCC/SGT/mv) included.
//
// Concurrency: a step takes no lock. Committed values live in
// per-variable atomic cells (diskTable) and a transaction's context in its
// slot of a transaction→slot table (internal/txtab), so ApplyStep, Get,
// Put, Rollback and a read-only Commit are lock-free. d.mu is the log
// mutex: a commit stages its record in the log buffer and then stores its
// write set under it, and checkpoint capture, publish and retirement,
// segment rolls, Reset, State and Scan take it too. Because every cell
// store happens under mu, log order is apply order and a capture under mu
// is an exact cut at its anchor; because a step reads one variable and
// each cell changes in commit order, a read racing a commit equals the
// same read just before or just after it. The sticky error is mirrored in
// an atomic flag so a step can check it without locking.
//
// Staged records reach the active segment in one write per commit group:
// flushLocked writes the whole log buffer at GroupSync, at every sync
// under mu (segment roll, Reset, checkpoint publish, Close), at checkpoint
// capture, and under FsyncAlways at every commit. A staged commit is
// applied in memory but lost on a process crash before the flush — under
// FsyncGroup it is not durable before its GroupSync either way — and a
// failed flush poisons the store, failing its whole group like a failed
// fsync. The segment roll bounds the buffer.
//
// The fsync behind GroupSync runs OFF mu (serialized by its own syncMu),
// so execution — appends included — proceeds while a group's fsync is in
// flight. That is what lets commit groups form: commits that arrive during
// the GroupCommitter's fsync pile up and are covered by one later sync.
// FsyncAlways deliberately keeps its per-commit write and sync under the
// mutex — the committing transaction must be durable before Commit
// returns, and paying that latency inline is exactly the cost the policy
// exists to measure.
type Disk struct {
	fs       FS
	dir      string
	policy   FsyncPolicy
	segBytes int64

	// ckptMu serializes whole checkpoints: the background loop and explicit
	// Checkpoint calls never interleave their capture/write/retire phases.
	// Lock order: ckptMu before syncMu before mu.
	ckptMu sync.Mutex

	// syncMu serializes the off-mutex fsyncs of GroupSync and excludes them
	// from checkpoint retirement (which closes sealed handles under it).
	// Lock order: syncMu before mu, never the reverse (appendLocked runs
	// under mu and must not touch syncMu).
	syncMu sync.Mutex

	// tab is the committed state, swapped whole by Reset and recovery.
	tab atomic.Pointer[diskTable]
	// bound is the System the store runs (Bind): a step finds its cell
	// by the variable number the System gives it.
	bound binding
	// txs holds every transaction's context, found by its number with no
	// lock; a slot keeps its buffers' capacity across transactions and
	// runs, so a warm store allocates none per transaction.
	txs *txtab.Table[diskTx]
	// poisoned mirrors err != nil for the lock-free step path.
	poisoned atomic.Bool

	mu     sync.Mutex // the log mutex
	enc    walEncoder
	seq    int         // active segment number
	active File        // active segment, nil before Reset/OpenDisk
	sealed []sealedSeg // rolled segments, kept open until Close or
	// retirement (a concurrent GroupSync may hold a captured handle
	// mid-fsync; closing it under the roll would race the sync — retirement
	// closes them under syncMu, which excludes any in-flight group fsync)
	logBuf      []byte     // framed records staged since the last flushLocked
	resetCells  []walWrite // Reset's baseline image, reused
	activeBytes int64      // bytes appended to the active segment, staged included
	dirty       bool       // appended since the last successful sync
	err         error      // sticky durability error
	lock        *os.File   // exclusive data-dir lock (flock), nil once released

	// Checkpointer state (checkpoint.go), all under mu.
	ckptThresh  int64 // WAL bytes between checkpoints (0 = no background loop)
	sinceCkpt   int64 // bytes appended since the last checkpoint capture
	ckptSeq     int   // last checkpoint file number written
	ckptGen     int64 // bumped by Reset; abandons in-flight checkpoints
	ckptOff     bool  // disabled after persistent failures (health flag)
	ckptRunning bool  // background loop alive; cleared by its every exit
	ckptStopped bool  // stopCheckpointer called; Reset must not respawn
	ckptStop    chan struct{}
	ckptKick    chan struct{}
	ckptWG      sync.WaitGroup
	ckptOnce    sync.Once // stops the background loop exactly once

	// ckptCells and ckptEnc are the capture's reused table copy and the
	// checkpoint file's encoder, both under ckptMu.
	ckptCells []walWrite
	ckptEnc   walEncoder

	fsyncs        atomic.Int64
	walBytes      atomic.Int64
	walTruncated  atomic.Int64
	syncFailures  atomic.Int64
	recoveryNs    atomic.Int64
	recoveryBytes atomic.Int64
	checkpoints   atomic.Int64
	ckptFailures  atomic.Int64
	ckptBytes     atomic.Int64
	segsRetired   atomic.Int64
}

// sealedSeg is a rolled segment kept open until Close or retirement.
type sealedSeg struct {
	seq int
	f   File
}

var _ DurableBackend = (*Disk)(nil)

// defaultSegmentBytes seals the active segment once it exceeds 1 MiB.
const defaultSegmentBytes = 1 << 20

// NewDisk builds a disk backend in cfg.Dir (a fresh temporary directory
// when empty). The store is unusable until Reset loads an initial database
// — use OpenDisk to recover existing state instead. cfg.FS defaults to the
// real filesystem; tests plug in an ErrFS.
func NewDisk(cfg Config) (*Disk, error) {
	fs := cfg.FS
	if fs == nil {
		fs = OSFS{}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "optcc-disk-")
		if err != nil {
			return nil, fmt.Errorf("storage: disk temp dir: %w", err)
		}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("storage: disk dir %s: %w", dir, err)
	}
	// Double-open protection: two live writers on one WAL is silent
	// corruption, so the data dir is guarded by an exclusive flock taken
	// for the store's lifetime. Released by Close — and by the sticky
	// error that poisons a store (poisonLocked), since a poisoned store
	// never writes the log again, exactly like the dead process whose lock
	// the kernel would release.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	segBytes := int64(cfg.SegmentBytes)
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	d := &Disk{
		fs:         fs,
		dir:        dir,
		policy:     cfg.Fsync,
		segBytes:   segBytes,
		lock:       lock,
		ckptThresh: int64(cfg.CheckpointBytes),
		ckptStop:   make(chan struct{}),
		ckptKick:   make(chan struct{}, 1),
		txs:        txtab.New(newDiskTxs),
	}
	d.tab.Store(loadDiskTable(nil, nil, nil))
	if d.ckptThresh > 0 {
		d.ckptRunning = true
		d.ckptWG.Add(1)
		go d.checkpointLoop()
	}
	return d, nil
}

// Name implements Backend.
func (d *Disk) Name() string { return "disk" }

// Bind implements Binder.
func (d *Disk) Bind(sys *core.System) { d.bound.bind(sys) }

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

// segName formats segment file names so lexicographic order is replay
// order.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// poisonLocked records the sticky durability error (first one wins) and
// releases the data-dir lock: a poisoned store never writes the log again
// — every subsequent append, sync, checkpoint and retirement refuses — so
// giving up the exclusive lock mirrors the dead process whose flock the
// kernel releases, and lets a fresh OpenDisk recover the directory.
func (d *Disk) poisonLocked(err error) {
	if d.err == nil {
		d.err = err
		d.poisoned.Store(true)
	}
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
}

// Reset implements Backend: discard every segment, load init as the new
// database, and persist it as a snapshot record opening a fresh log. The
// snapshot is synced before Reset returns so the baseline itself is
// durable.
func (d *Disk) Reset(init core.DB) {
	d.txs.Range(func(_ int, c *diskTx) bool {
		c.finish()
		c.reads, c.nwrites, c.rollbacks, c.byName = 0, 0, 0, 0
		return true
	})
	d.mu.Lock()
	d.resetLocked(init)
	// A degraded run leaves the background loop dead (sticky store error or
	// persistent checkpoint failures, checkpoint.go) — and resetLocked just
	// cleared both the sticky error and the CheckpointerOff flag, so the
	// healthy report must come with an actual checkpointer behind it.
	// Respawn unless the loop is still alive, the store was stopped for
	// good (Close), or the reset itself failed. The decision and the
	// running/WG bookkeeping happen under mu; the spawn itself must not
	// (the goroutine takes ckptMu/syncMu/mu in its own time).
	respawn := d.ckptThresh > 0 && !d.ckptRunning && !d.ckptStopped && d.err == nil
	if respawn {
		d.ckptRunning = true
		d.ckptWG.Add(1)
	}
	d.mu.Unlock()
	if respawn {
		go d.checkpointLoop()
	}
}

// resetLocked is Reset's body, under d.mu.
func (d *Disk) resetLocked(init core.DB) {
	d.closeSegmentsLocked()
	names, err := d.fs.List(d.dir)
	if err != nil {
		d.poisonLocked(err)
		return
	}
	for _, n := range names {
		if n == lockFileName {
			continue // unlinking our own flock would let a second writer in
		}
		if err := d.fs.Remove(segPath(d.dir, n)); err != nil {
			d.poisonLocked(err)
			return
		}
	}
	t := loadDiskTable(d.tab.Load(), init, &d.bound)
	d.tab.Store(t)
	d.err = nil
	d.poisoned.Store(false)
	d.seq = 1
	d.logBuf = d.logBuf[:0]
	d.activeBytes = 0
	d.dirty = false
	d.ckptGen++ // abandon any in-flight checkpoint of the old incarnation
	d.ckptSeq = 0
	d.sinceCkpt = 0
	d.ckptOff = false
	d.fsyncs.Store(0)
	d.walBytes.Store(0)
	d.syncFailures.Store(0)
	d.checkpoints.Store(0)
	d.ckptFailures.Store(0)
	d.ckptBytes.Store(0)
	d.segsRetired.Store(0)
	// WALTruncated and RecoveryNs survive Reset: they describe the open
	// that produced this store, which a Reset does not re-do.
	f, err := d.fs.Create(segPath(d.dir, segName(d.seq)))
	if err != nil {
		d.poisonLocked(err)
		return
	}
	d.active = f
	// The baseline snapshot is the state a checkpoint would copy, not log
	// growth: like OpenDisk's compaction snapshot it does not count toward
	// CheckpointBytes, or a large initial database would kick a checkpoint
	// that only re-copies the table just written.
	d.resetCells = appendCellsLocked(d.resetCells[:0], t)
	if err := d.writeLocked(d.enc.encodeSnapshot(d.resetCells)); err != nil {
		return
	}
	d.syncLocked()
}

// appendLocked writes one framed record (writeLocked) and counts it toward
// the checkpoint threshold, kicking the background checkpointer once the
// bytes appended since the last capture cross it.
func (d *Disk) appendLocked(frame []byte) error {
	if err := d.writeLocked(frame); err != nil {
		return err
	}
	d.sinceCkpt += int64(len(frame))
	if d.ckptThresh > 0 && d.sinceCkpt >= d.ckptThresh && !d.ckptOff {
		select { // wake the checkpointer; a pending kick already covers us
		case d.ckptKick <- struct{}{}:
		default:
		}
	}
	return nil
}

// writeLocked stages one framed record in the log buffer, rolling to a new
// segment first when the active one is full. Only the roll does I/O; on
// its failure the error is sticky, and memory was not modified by the
// caller yet (callers append before applying), so the log remains the
// truth.
func (d *Disk) writeLocked(frame []byte) error {
	if d.err != nil {
		return d.err
	}
	if d.active == nil {
		d.err = fmt.Errorf("storage: disk backend used before Reset/OpenDisk")
		d.poisoned.Store(true)
		return d.err
	}
	if d.activeBytes >= d.segBytes {
		// Seal the active segment: flush and sync it so only the newest
		// segment can ever hold a torn tail, then start the next one (so
		// the staged bytes never exceed one segment plus one record). The
		// sealed file stays open until Close or checkpoint retirement — a
		// concurrent GroupSync may be fsyncing a captured handle to it
		// right now.
		if err := d.syncLocked(); err != nil {
			return err
		}
		d.sealed = append(d.sealed, sealedSeg{seq: d.seq, f: d.active})
		d.seq++
		f, err := d.fs.Create(segPath(d.dir, segName(d.seq)))
		if err != nil {
			d.poisonLocked(err)
			return err
		}
		d.active = f
		d.activeBytes = 0
	}
	d.logBuf = append(d.logBuf, frame...)
	d.walBytes.Add(int64(len(frame)))
	d.activeBytes += int64(len(frame))
	d.dirty = true
	return nil
}

// flushLocked writes every staged record to the active segment with one
// Write. A failed or short write poisons the store: the records it carried
// were applied in memory but may be torn on disk, so the log can no longer
// be trusted to match memory.
func (d *Disk) flushLocked() error {
	if d.err != nil {
		return d.err
	}
	if len(d.logBuf) == 0 {
		return nil
	}
	_, err := d.active.Write(d.logBuf)
	d.logBuf = d.logBuf[:0]
	if err != nil {
		d.poisonLocked(err)
	}
	return err
}

// syncLocked flushes the log buffer and forces the active segment to
// stable storage if anything was appended since the last sync.
func (d *Disk) syncLocked() error {
	if err := d.flushLocked(); err != nil {
		return err
	}
	if !d.dirty || d.active == nil {
		return nil
	}
	if err := d.active.Sync(); err != nil {
		d.syncFailures.Add(1)
		d.poisonLocked(err)
		return err
	}
	d.dirty = false
	d.fsyncs.Add(1)
	return nil
}

// Get implements Backend.
func (d *Disk) Get(tx int, v core.Var) core.Value {
	return d.txs.Slot(tx).get(d.tab.Load().Lookup(v), v)
}

// Put implements Backend: scalar joins tx's write set; nothing reaches the
// table or the log before Commit.
func (d *Disk) Put(tx int, v core.Var, scalar core.Value) {
	c := d.txs.Slot(tx)
	c.nwrites++
	c.writes = append(c.writes, walWrite{v: v, val: scalar})
}

// Scan implements Backend.
func (d *Disk) Scan(fn func(v core.Var, scalar core.Value) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	eachLocked(d.tab.Load(), fn)
}

// ApplyStep implements Backend with the paper's step semantics (see
// Backend); a sticky durability error fails every subsequent step, which
// is how a poisoned store surfaces as the run error. It takes no lock: the
// context is one table lookup, the read one more and one atomic load. A
// bound store finds the step's cell by its variable number (see Backend),
// and the write carries the cell to Commit; any other step hashes the
// name.
func (d *Disk) ApplyStep(tx int, step core.Step) error {
	if d.poisoned.Load() {
		return d.Err()
	}
	if step.Kind != core.Read && step.Fn == nil {
		return fmt.Errorf("storage: step on %s has no interpretation", step.Var)
	}
	c := d.txs.Slot(tx)
	t := d.tab.Load()
	cell := t.AtVar(d.bound.stepID(tx, len(c.locals)), step.Var)
	if cell == nil {
		c.byName++
		cell = t.Lookup(step.Var)
	}
	c.locals = append(c.locals, c.get(cell, step.Var))
	if step.Kind != core.Read {
		c.nwrites++
		c.writes = append(c.writes, walWrite{v: step.Var, val: step.Fn(c.locals), cell: cell})
	}
	return nil
}

// Commit implements Backend. The commit record is the durability point: it
// logs the write set, which is applied once the record is staged. Under
// FsyncAlways the record is written and synced before Commit returns, and
// a failed write commits nothing (the error is sticky: Err); under
// FsyncGroup the record reaches the file, and durability arrives, at the
// next GroupSync, whose failure fails the whole group. A read-only
// transaction has nothing to log and never takes the log mutex.
func (d *Disk) Commit(tx int) {
	c := d.txs.Lookup(tx)
	if c == nil {
		return
	}
	if len(c.writes) > 0 {
		d.commitWrites(tx, c.writes)
	}
	c.finish()
}

// commitWrites stages tx's commit record and then publishes its write set,
// both under the log mutex, so log order is apply order. Under FsyncAlways
// the record is written before the cells change. A poisoned store appends
// nothing.
func (d *Disk) commitWrites(tx int, writes []walWrite) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return
	}
	if err := d.appendLocked(d.enc.encodeCommit(tx, writes)); err != nil {
		return
	}
	if d.policy == FsyncAlways && d.flushLocked() != nil {
		return
	}
	t := d.tab.Load()
	for _, w := range writes {
		cell := w.cell
		if cell == nil {
			cell = t.Slot(w.v) // buffered by name, or a variable the table lacks
		}
		cell.val.Store(int64(w.val))
	}
	if d.policy == FsyncAlways {
		d.syncLocked()
	}
}

// Rollback implements Backend: it discards the write set, which never
// reached the table or the log.
func (d *Disk) Rollback(tx int) {
	c := d.txs.Lookup(tx)
	if c == nil {
		return
	}
	if len(c.locals) > 0 || len(c.writes) > 0 {
		c.rollbacks++
	}
	c.finish()
}

// State implements Backend.
func (d *Disk) State() core.DB {
	d.mu.Lock()
	defer d.mu.Unlock()
	return snapshotLocked(d.tab.Load())
}

// GroupSync implements GroupSyncer: under every policy it writes the
// staged records with one write (flushLocked); under FsyncGroup (and
// FsyncAlways, where it is a clean-log no-op) it then forces the log down.
// The GroupCommitter calls this once per drained group, so a group costs
// one write and, under FsyncGroup, one fsync. A failed write poisons the
// store and fails the group exactly as a failed fsync does.
//
// The fsync itself runs outside d.mu, so appends — and with them the whole
// execution hot path — proceed while it is in flight; that concurrency is
// what grows commit groups. Correctness: every record of the drained group
// was staged before this call, so each sits either in a sealed segment
// (flushed and synced at roll time, under d.mu) or in the active segment,
// flushed and captured here. A record appended after the capture re-marks
// the log dirty and is covered by the next sync; callers piggybacking on a
// sync that already covered their records see a clean log and skip the
// fsync entirely.
func (d *Disk) GroupSync() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	if err := d.flushLocked(); err != nil || d.policy == FsyncNever || !d.dirty || d.active == nil {
		d.mu.Unlock()
		return err
	}
	f := d.active
	d.dirty = false
	d.mu.Unlock()
	if err := f.Sync(); err != nil {
		d.syncFailures.Add(1)
		d.mu.Lock()
		d.poisonLocked(err)
		d.mu.Unlock()
		return err
	}
	d.fsyncs.Add(1)
	return nil
}

// SyncCoalesces reports whether GroupSync performs real, amortizable
// fsyncs — true only under FsyncGroup (under FsyncAlways every commit
// already synced inline; under FsyncNever there is nothing to sync). The
// GroupCommitter uses it to decide whether giving runnable peers a chance
// to join the next group, when the queue runs empty, can pay for itself.
// The policy is immutable after construction, so no lock is needed.
func (d *Disk) SyncCoalesces() bool { return d.policy == FsyncGroup }

// Err returns the sticky durability error, if any.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// closeSegmentsLocked closes the active segment and every sealed one.
func (d *Disk) closeSegmentsLocked() {
	if d.active != nil {
		d.active.Close()
		d.active = nil
	}
	for _, s := range d.sealed {
		s.f.Close()
	}
	d.sealed = nil
}

// Close syncs and closes every open segment and releases the data-dir
// lock. The store must be quiescent. The background checkpointer is
// stopped (and any in-flight checkpoint drained) before the segments go
// away, so Close never races a checkpoint.
func (d *Disk) Close() error {
	d.stopCheckpointer()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
	if d.active == nil {
		return d.err
	}
	err := d.syncLocked()
	d.closeSegmentsLocked()
	return err
}

// Destroy removes the backing directory. Test convenience.
func (d *Disk) Destroy() error {
	d.Close()
	return os.RemoveAll(d.dir)
}

// DurabilityStats implements DurableBackend.
func (d *Disk) DurabilityStats() DurabilityStats {
	d.mu.Lock()
	off := d.ckptOff
	d.mu.Unlock()
	return DurabilityStats{
		Fsyncs:             d.fsyncs.Load(),
		WALBytes:           d.walBytes.Load(),
		WALTruncated:       d.walTruncated.Load(),
		SyncFailures:       d.syncFailures.Load(),
		RecoveryNs:         d.recoveryNs.Load(),
		RecoveryBytes:      d.recoveryBytes.Load(),
		Checkpoints:        d.checkpoints.Load(),
		CheckpointFailures: d.ckptFailures.Load(),
		CheckpointBytes:    d.ckptBytes.Load(),
		SegmentsRetired:    d.segsRetired.Load(),
		CheckpointerOff:    off,
	}
}

// Stats reports the backend's physical work in the shared Stats shape
// (payload counters stay zero: the disk backend models scalars only). It
// sums the transactions' own counters, so it reads a quiescent store:
// call it after the run, not during one.
func (d *Disk) Stats() Stats {
	var st Stats
	d.txs.Range(func(_ int, c *diskTx) bool {
		st.Reads += c.reads
		st.Writes += c.nwrites
		st.Rollbacks += c.rollbacks
		st.ByName += c.byName
		return true
	})
	return st
}
