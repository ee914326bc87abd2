package storage

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"optcc/internal/core"
	"optcc/internal/lockmgr"
	"optcc/internal/txtab"
	"optcc/internal/vartab"
)

// Record is one stored value: the paper's int64 scalar plus an opaque
// payload of configurable size, protected by a checksum. Records are
// immutable once stored — a write builds a fresh record (copy-on-write), so
// an undo-log entry holding the previous version restores it byte-identically
// and readers may checksum a record without holding anything.
type Record struct {
	// Scalar is the core.Value visible to step interpretations.
	Scalar core.Value
	// Payload is the opaque value body; reads checksum it, writes copy it.
	Payload []byte
	// Sum is the XOR checksum of Payload, verified on every read.
	Sum byte
}

// version is one link of a variable's version chain: an immutable Record
// stamped with the commit timestamps bounding its visibility. Chains are
// latest-first — a variable's chain head is its newest version and next
// walks toward older ones. Writers install a fresh head with CAS; nothing
// in a chain is ever mutated in place except the begin/end stamps (set once
// each, at commit) and the GC's unlink of an unreachable older suffix.
type version struct {
	rec Record
	// begin is the commit timestamp from which the version is visible
	// (0 for the initial load). While the writing transaction is
	// uncommitted it holds the negative transaction mark -(tx+1), which no
	// snapshot admits and only the writing transaction itself reads through.
	begin atomic.Int64
	// end is the commit timestamp of the superseding version, 0 while the
	// version is still current. A version is visible to snapshot s iff
	// 0 <= begin <= s and (end == 0 || end > s).
	end atomic.Int64
	// next is the immediately older version. The GC clears it (see
	// kvShard.collect) once the older suffix is invisible to every pinned
	// snapshot, so superseded versions do not accumulate.
	next atomic.Pointer[version]
}

// uncommittedMark is the begin stamp of a version whose writing transaction
// has not committed: negative, so it compares below every snapshot.
//
//optcc:hotpath
func uncommittedMark(tx int) int64 { return -int64(tx) - 1 }

// chain is one variable's version list: the CAS-installed head, and the
// shard the variable's versions are recycled and collected in. Chains live
// in an internal/vartab table, created once per variable (at Reset for
// declared variables, through vartab's fallback for stragglers) and never
// removed, so looking one up is a pure read of an immutable map, or one
// index by the variable's number.
type chain struct {
	head atomic.Pointer[version]
	// sh is the variable's shard (lockmgr.ShardOfVar), set when Reset lays
	// the table out; nil on a fallback chain, whose shard the name path
	// finds by hashing.
	sh *kvShard
}

// Stats counts the physical work a backend performed since Reset.
type Stats struct {
	// Reads and Writes count record accesses through the transactional
	// Get/Put path.
	Reads, Writes int64
	// BytesRead and BytesWritten count payload bytes touched.
	BytesRead, BytesWritten int64
	// Rollbacks counts undo-log replays (aborted transactions).
	Rollbacks int64
	// SnapshotReads counts reads served through the lock-free snapshot
	// path (SnapshotRead), outside Reads.
	SnapshotReads int64
	// VersionsGCed counts superseded versions the garbage collector
	// unlinked once no snapshot could see them (their payloads return to
	// the freelists when Recycle is on).
	VersionsGCed int64
	// ByName counts the steps (ApplyStep) and numbered snapshot reads
	// (SnapshotReadAt) that found their record by name because the number
	// did not name it: every step of an unbound store, none of a store
	// bound to the System it runs. The name-keyed calls (Get, Put,
	// SnapshotRead) are not counted.
	ByName int64
}

// Config parameterizes the in-memory KV backend.
type Config struct {
	// Shards is the number of KV shards, each with its own payload
	// freelists and retired-version queue; variables are placed with
	// lockmgr.ShardOfVar, the same partition function as the sharded lock
	// table and the runtime's decision latches, so storage, locks and
	// latches always agree on ownership (minimum 1).
	Shards int
	// ValueSize is the payload size in bytes for every record (0 keeps
	// records scalar-only).
	ValueSize int
	// Recycle returns dead payload buffers to the per-shard size-classed
	// freelists: superseded versions are recycled by the GC once no pinned
	// snapshot can see them, and a Rollback recycles the dying write it
	// removes from the chain, so a warmed-up run's Put path allocates no
	// payload bytes at all.
	//
	// Aliasing rule (DESIGN.md "Memory discipline" and "Multiversion
	// storage"): Recycle is sound when every reader of a record is either
	// (a) covered by strict execution — no transaction reads or overwrites
	// a value written by an uncommitted transaction, as under serial and
	// the strict 2PL family — or (b) a snapshot reader holding a pin
	// (SnapshotAcquire), which the GC's minimum-active-snapshot horizon
	// respects. Under a non-strict scheduler (SGT-style, TO, OCC, MV) an
	// unpinned Get may still be checksumming a version when a concurrent
	// commit supersedes and collects it — leave Recycle off there, as the
	// runtime does.
	Recycle bool
	// SnapshotSlots is the number of concurrent snapshot pins the store
	// supports (0 = defaultSnapshotSlots). Each reader of the snapshot
	// path owns one slot; the runtime maps user goroutines onto slots and
	// falls back to the transactional path when it has more users than
	// slots.
	SnapshotSlots int

	// The fields below configure the durable disk backend (disk.go) and
	// are ignored by the in-memory KV.

	// Dir is the disk backend's directory of log segments ("" = a fresh
	// temporary directory).
	Dir string
	// Fsync is when the disk backend forces its log to stable storage
	// (default FsyncGroup: one fsync per group-commit drain).
	Fsync FsyncPolicy
	// SegmentBytes seals the active log segment past this size
	// (0 = 1 MiB).
	SegmentBytes int
	// CheckpointBytes arms the online fuzzy checkpointer (checkpoint.go):
	// once this many bytes have been appended to the WAL since the last
	// checkpoint, a background goroutine snapshots the store to a
	// checkpoint file, records a marker in the log and retires every
	// sealed segment behind the anchor, bounding the on-disk footprint and
	// recovery time of a long-running store. 0 (the default) disables the
	// background checkpointer; Disk.Checkpoint can still be called
	// explicitly.
	CheckpointBytes int
	// FS is the filesystem the disk backend writes through (nil = the
	// real one). Tests inject faults by supplying an ErrFS.
	FS FS
}

// defaultSnapshotSlots is the snapshot pin capacity when Config leaves it 0:
// comfortably above the experiments' largest user counts.
const defaultSnapshotSlots = 256

// retiredVer is a superseded version awaiting garbage collection: it may be
// collected — its older suffix unlinked and, with Recycle, its payload
// returned to the freelists — once every snapshot that could still see it
// (any snapshot older than at, the superseding commit's timestamp) has been
// released.
type retiredVer struct {
	ver  *version // the superseded version; at == ver.end
	succ *version // its superseder, whose next pointer the unlink clears
	at   int64    // the superseding commit timestamp
}

// kvShard is one shard's GC state: its size-classed payload freelists and
// the retired-version queue feeding them (sharding GC state like the
// writes keeps collection contention as partitioned as the writes
// themselves).
type kvShard struct {
	freeMu  sync.Mutex
	free    [numClasses][][]byte
	retired []retiredVer
}

// numClasses bounds the power-of-two size classes of the payload
// freelists: class c holds buffers of capacity 1<<c, up to 8 MiB. Larger
// payloads fall back to the allocator.
const numClasses = 24

// classFree caps each per-shard, per-class freelist so a burst of aborts
// cannot pin an unbounded amount of dead payload memory.
const classFree = 256

// classOf returns the size class whose buffers hold size bytes, or -1 when
// the size is out of the classed range.
//
//optcc:hotpath
func classOf(size int) int {
	if size <= 0 || size > 1<<(numClasses-1) {
		return -1
	}
	c := bits.Len(uint(size - 1))
	return c
}

// getBuf returns a payload buffer of the given size from the shard's
// freelist, or a fresh one with class-rounded capacity so it can be
// recycled later.
//
//optcc:hotpath
func (sh *kvShard) getBuf(size int) []byte {
	c := classOf(size)
	if c < 0 {
		//cclint:ignore hotpath out-of-class payloads (>8 MiB) fall back to the allocator by design
		return make([]byte, size)
	}
	sh.freeMu.Lock()
	if n := len(sh.free[c]); n > 0 {
		p := sh.free[c][n-1]
		sh.free[c][n-1] = nil
		sh.free[c] = sh.free[c][:n-1]
		sh.freeMu.Unlock()
		return p[:size]
	}
	sh.freeMu.Unlock()
	//cclint:ignore hotpath freelist miss is the warm-up path; steady state hits the freelist
	return make([]byte, size, 1<<c)
}

// putBuf returns a dead payload buffer to the shard's freelist. Buffers
// whose capacity is not an exact class size (or whose class is full) are
// dropped to the garbage collector.
//
//optcc:hotpath
//optcc:release
func (sh *kvShard) putBuf(p []byte) {
	sh.freeMu.Lock()
	sh.putBufLocked(p)
	sh.freeMu.Unlock()
}

// putBufLocked is putBuf for callers already holding freeMu.
//
//optcc:hotpath
//optcc:release
func (sh *kvShard) putBufLocked(p []byte) {
	if cap(p) == 0 {
		return
	}
	c := bits.Len(uint(cap(p)) - 1)
	if c >= numClasses || cap(p) != 1<<c {
		return
	}
	if len(sh.free[c]) < classFree {
		//cclint:ignore hotpath freelist append is bounded by classFree and reuses capacity after warm-up
		sh.free[c] = append(sh.free[c], p[:cap(p)])
	}
}

// retire queues a superseded version for collection once no snapshot can
// see it.
func (sh *kvShard) retire(ver, succ *version, at int64) {
	sh.freeMu.Lock()
	sh.retired = append(sh.retired, retiredVer{ver: ver, succ: succ, at: at})
	sh.freeMu.Unlock()
}

// collect garbage-collects the shard's retired versions that no snapshot
// can reach: every version superseded at or before minActive is invisible
// to all pinned snapshots (their timestamps are >= minActive) and to every
// future one (the published clock is >= minActive), so its older suffix is
// unlinked from the chain and its payload returns to the freelist when
// Recycle is on. The unlink is safe against concurrent readers: a walker
// only dereferences a version's next after rejecting it, and the superseder
// (begin == at <= minActive <= any pinned snapshot) is always accepted
// first — see DESIGN.md "Multiversion storage" for the full argument.
func (sh *kvShard) collect(kv *KV, minActive int64) {
	sh.freeMu.Lock()
	kept := sh.retired[:0]
	for _, r := range sh.retired {
		if r.at > minActive {
			kept = append(kept, r)
			continue
		}
		r.succ.next.Store(nil)
		if kv.cfg.Recycle {
			sh.putBufLocked(r.ver.rec.Payload)
		}
		kv.versionsGCed.Add(1)
	}
	for i := len(kept); i < len(sh.retired); i++ {
		sh.retired[i] = retiredVer{} // drop version refs
	}
	sh.retired = kept
	sh.freeMu.Unlock()
}

// txInline is how many locals and logged writes a transaction keeps inside
// its own slot: a transaction of up to txInline steps needs no buffer of
// its own, and a longer one grows its buffers once (the slot keeps their
// capacity for its next attempt and the next run).
const txInline = 4

// kvTx is a transaction's slot in the store's internal/txtab table: the
// paper's local variables t_i1..t_ij, the undo log of installed versions,
// and the transaction's own step counters, which Stats sums. Only the
// transaction's own steps touch it (the package's transaction
// discipline), so nothing in it is locked or atomic.
type kvTx struct {
	locals   []core.Value
	undo     []undoRec
	localBuf [txInline]core.Value
	undoBuf  [txInline]undoRec

	reads, writes, bytesRead, bytesWritten, rollbacks, byName int64
}

// newKVTxs points each new slot's buffers at its inline arrays.
func newKVTxs(slots []kvTx) {
	for i := range slots {
		slots[i].locals, slots[i].undo = slots[i].localBuf[:0], slots[i].undoBuf[:0]
	}
}

// finish empties c for the transaction's next attempt, dropping the undo
// log's version references so a finished transaction pins no version.
func (c *kvTx) finish() {
	c.locals = c.locals[:0]
	clear(c.undo)
	c.undo = c.undo[:0]
}

// undoRec remembers one installed version, the head it displaced (nil:
// the variable was absent, so rollback empties the chain), and the chain
// and shard the write found, so commit and rollback find them again
// without the variable's name.
type undoRec struct {
	ch   *chain
	sh   *kvShard
	ver  *version
	prev *version
}

// readerSlot is one snapshot pin plus its reader's local counters, padded
// to a cache line so concurrent readers on adjacent slots do not
// false-share. ts == -1 means the slot is unpinned.
type readerSlot struct {
	ts     atomic.Int64
	reads  atomic.Int64
	bytes  atomic.Int64
	byName atomic.Int64 // SnapshotReadAt calls whose number missed
	_      [txtab.LineSize - 32]byte
}

// KV is the sharded in-memory implementation of Backend: one immutable
// variable→chain table (internal/vartab), GC state sharded exactly like
// lockmgr.ShardedTable, timestamp-stamped version chains with CAS head
// install, per-transaction undo logs for abort rollback in one
// transaction→slot table (internal/txtab), and a pinned
// snapshot-read path that takes no lock of any kind. See the package
// comment for the concurrency contract and the replay invariant, and
// DESIGN.md "Multiversion storage" for visibility and GC safety.
type KV struct {
	cfg    Config
	shards []kvShard
	vars   *vartab.Table[chain]
	// bound is the System the store runs (Bind): a step finds its chain
	// by the variable number the System gives it.
	bound binding

	// commitSeq hands out commit timestamps; snapClock publishes them in
	// order once a commit's versions are fully stamped, so a snapshot at
	// snapClock never observes a half-stamped commit.
	commitSeq atomic.Int64
	snapClock atomic.Int64

	// slots are the snapshot pins; activePins counts pinned slots so the
	// GC's horizon scan is one atomic load when the snapshot path is idle.
	slots      []readerSlot
	activePins atomic.Int64

	// txs holds every transaction's context, found by its number with no
	// lock; a slot keeps its buffers' capacity across transactions and
	// runs, so a warm store allocates no per-transaction bookkeeping.
	txs *txtab.Table[kvTx]

	versionsGCed atomic.Int64
}

var _ Backend = (*KV)(nil)
var _ SnapshotBackend = (*KV)(nil)

// NewKV returns an empty sharded KV backend; call Reset to load state.
func NewKV(cfg Config) *KV {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.SnapshotSlots <= 0 {
		cfg.SnapshotSlots = defaultSnapshotSlots
	}
	kv := &KV{
		cfg:    cfg,
		shards: make([]kvShard, cfg.Shards),
		vars:   vartab.New[chain](nil),
		slots:  make([]readerSlot, cfg.SnapshotSlots),
		txs:    txtab.New(newKVTxs),
	}
	for i := range kv.slots {
		kv.slots[i].ts.Store(-1)
	}
	return kv
}

// Name implements Backend.
func (kv *KV) Name() string { return fmt.Sprintf("kv(%d)", len(kv.shards)) }

// NumShards returns the shard count.
func (kv *KV) NumShards() int { return len(kv.shards) }

// shard finds v's shard by hashing its name: the name path's, and
// Reset's once per declared variable (chain.sh).
//
//optcc:hotpath
func (kv *KV) shard(v core.Var) *kvShard {
	return &kv.shards[lockmgr.ShardOfVar(v, len(kv.shards))]
}

// Bind implements Binder.
func (kv *KV) Bind(sys *core.System) { kv.bound.bind(sys) }

// checksum is the XOR fold of a payload; recomputed on every read so a read
// touches every byte, the way a real engine's page checksum does. It folds
// a word at a time — four independent accumulators over 32-byte blocks,
// then single words, then the word folded down to one byte and the 0–7
// tail bytes XORed in — which equals the byte-at-a-time fold exactly (XOR
// is associative and commutative; FuzzChecksum holds it to the reference).
// A single-accumulator word loop measured 3× slower at 4 KiB.
//
//optcc:hotpath
func checksum(p []byte) byte {
	var a, b, c, d uint64
	for ; len(p) >= 32; p = p[32:] {
		a ^= binary.LittleEndian.Uint64(p)
		b ^= binary.LittleEndian.Uint64(p[8:])
		c ^= binary.LittleEndian.Uint64(p[16:])
		d ^= binary.LittleEndian.Uint64(p[24:])
	}
	for ; len(p) >= 8; p = p[8:] {
		a ^= binary.LittleEndian.Uint64(p)
	}
	w := a ^ b ^ c ^ d
	w ^= w >> 32
	w ^= w >> 16
	w ^= w >> 8
	s := byte(w)
	for _, x := range p {
		s ^= x
	}
	return s
}

// fillPeriod is one 256-byte period of the fresh-payload pattern byte(i),
// copied in whole periods by newVersion.
var fillPeriod = func() (f [256]byte) {
	for i := range f {
		f[i] = byte(i)
	}
	return f
}()

// newVersion builds an immutable version stamped begin=mark: prev's payload
// is copied (or a fresh deterministic fill when prev is nil or resized),
// the scalar is stamped into the first 8 bytes, and the checksum is
// computed. The buffer comes from the shard freelist; a recycled buffer may
// hold stale bytes, so both branches overwrite all size bytes. The copy
// from prev is validated by the caller's CAS install: if prev was
// superseded (and possibly collected) mid-copy, the CAS fails and the
// garbage copy is discarded.
func (kv *KV) newVersion(sh *kvShard, size int, scalar core.Value, prev *version, mark int64) *version {
	p := sh.getBuf(size)
	if prev != nil && len(prev.rec.Payload) == size {
		copy(p, prev.rec.Payload)
	} else {
		fillFresh(p)
	}
	stampScalar(p, scalar)
	ver := &version{rec: Record{Scalar: scalar, Payload: p, Sum: checksum(p)}}
	ver.begin.Store(mark)
	ver.next.Store(prev)
	return ver
}

// fillFresh overwrites p with the fresh-payload pattern p[i] = byte(i).
// After the first period it doubles the filled prefix, which stays a
// whole number of 256-byte periods, so a 4 KiB payload takes five copies.
func fillFresh(p []byte) {
	for n := copy(p, fillPeriod[:]); n < len(p); {
		n += copy(p[n:], p[:n])
	}
}

// stampScalar writes scalar into the first 8 bytes of p, little-endian.
func stampScalar(p []byte, scalar core.Value) {
	u := uint64(scalar)
	for i := 0; i < 8 && i < len(p); i++ {
		p[i] = byte(u >> (8 * i))
	}
}

// initialVersion returns the begin=0 version Reset loads for scalar: old
// itself, rewritten in place with a fresh payload in its own buffer, when
// old is a chain head of the configured size; otherwise a new version.
// Rewriting drops old's older versions. It is safe only because no
// transaction or snapshot is live during Reset: nothing can be reading
// old's record.
func (kv *KV) initialVersion(sh *kvShard, old *version, scalar core.Value) *version {
	size := kv.cfg.ValueSize
	if old == nil || len(old.rec.Payload) != size {
		return kv.newVersion(sh, size, scalar, nil, 0)
	}
	p := old.rec.Payload
	fillFresh(p)
	stampScalar(p, scalar)
	old.rec = Record{Scalar: scalar, Payload: p, Sum: checksum(p)}
	old.begin.Store(0)
	old.end.Store(0)
	old.next.Store(nil)
	return old
}

// Reset implements Backend: drop everything and load init, one chain with
// one begin=0 version per variable with its configured payload size, laid
// out in sorted variable order (core.System.Vars order, so a bound step's
// number indexes the table). When init has the same variables as the
// current table (a runtime resetting the store before every run over one
// system), the table is kept and each chain's head is rewritten in place
// (initialVersion), so a repeated Reset allocates no table and no payload.
// No transaction or snapshot may be live during Reset (Backend.Reset);
// init is only read.
func (kv *KV) Reset(init core.DB) {
	if !kv.vars.SameVars(init) {
		kv.vars = vartab.New[chain](slices.Sorted(maps.Keys(init)))
		kv.vars.Range(func(v core.Var, ch *chain) bool {
			ch.sh = kv.shard(v)
			return true
		})
	}
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.freeMu.Lock()
		for j := range sh.retired {
			sh.retired[j] = retiredVer{}
		}
		sh.retired = sh.retired[:0]
		sh.freeMu.Unlock()
	}
	kv.txs.Range(func(_ int, c *kvTx) bool {
		c.finish()
		c.reads, c.writes, c.bytesRead, c.bytesWritten, c.rollbacks, c.byName = 0, 0, 0, 0, 0, 0
		return true
	})
	kv.commitSeq.Store(0)
	kv.snapClock.Store(0)
	kv.activePins.Store(0)
	for i := range kv.slots {
		kv.slots[i].ts.Store(-1)
		kv.slots[i].reads.Store(0)
		kv.slots[i].bytes.Store(0)
		kv.slots[i].byName.Store(0)
	}
	kv.versionsGCed.Store(0)
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		ch.head.Store(kv.initialVersion(ch.sh, ch.head.Load(), init[v]))
		return true
	})
}

// Get implements Backend: walk tx's chain view lock-free and return the
// newest version that is either committed or tx's own uncommitted write
// (read-your-writes). Another transaction's uncommitted version is skipped
// without being checksummed, so a concurrent rollback recycling it never
// races a reader's checksum. The walk retries from a fresh head if a
// concurrent GC unlink cuts it short — possible only for unpinned readers
// racing a supersede, where any committed successor is an acceptable
// answer.
//
//optcc:hotpath
func (kv *KV) Get(tx int, v core.Var) core.Value {
	return kv.get(kv.txs.Slot(tx), tx, kv.vars.Lookup(v), v)
}

// get is Get for a caller already holding tx's context c and v's chain
// ch (nil: v has none, and reads 0).
//
//optcc:hotpath
func (kv *KV) get(c *kvTx, tx int, ch *chain, v core.Var) core.Value {
	if ch == nil {
		return 0
	}
	mark := uncommittedMark(tx)
	for attempt := 0; attempt < 4; attempt++ {
		for ver := ch.head.Load(); ver != nil; ver = ver.next.Load() {
			b := ver.begin.Load()
			if b < 0 && b != mark {
				continue // another transaction's uncommitted version
			}
			c.reads++
			c.bytesRead += int64(len(ver.rec.Payload))
			if checksum(ver.rec.Payload) != ver.rec.Sum {
				//cclint:ignore hotpath corruption panic is the failure path; it never executes on a healthy run
				panic(fmt.Sprintf("storage: payload corruption on %s", v))
			}
			return ver.rec.Scalar
		}
		if ch.head.Load() == nil {
			break // variable genuinely absent
		}
	}
	return 0
}

// Put implements Backend: build the copy-on-write version outside any
// critical section and CAS-install it as the chain head, stamped with tx's
// uncommitted mark; the displaced head goes to tx's undo log. A lost
// install race (concurrent writers — non-strict schedulers only) recycles
// the speculative buffer and rebuilds against the new head.
func (kv *KV) Put(tx int, v core.Var, scalar core.Value) {
	kv.put(kv.txs.Slot(tx), tx, kv.vars.Slot(v), kv.shard(v), scalar)
}

// put is Put for a caller already holding tx's context c and the chain ch
// and shard sh of the variable written, so a write step looks each up
// once.
func (kv *KV) put(c *kvTx, tx int, ch *chain, sh *kvShard, scalar core.Value) {
	size := kv.cfg.ValueSize
	mark := uncommittedMark(tx)
	for {
		prev := ch.head.Load()
		ver := kv.newVersion(sh, size, scalar, prev, mark)
		if ch.head.CompareAndSwap(prev, ver) {
			c.writes++
			c.bytesWritten += int64(len(ver.rec.Payload))
			c.undo = append(c.undo, undoRec{ch: ch, sh: sh, ver: ver, prev: prev})
			return
		}
		sh.putBuf(ver.rec.Payload)
	}
}

// Scan implements Backend: visit every chain head's scalar without taking
// any lock (the table's map is immutable and heads are atomic). The view
// is not a consistent cut while writers are active; State after
// quiescence is.
func (kv *KV) Scan(fn func(v core.Var, scalar core.Value) bool) {
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		if ver := ch.head.Load(); ver != nil {
			return fn(v, ver.rec.Scalar)
		}
		return true
	})
}

// ApplyStep implements Backend with the paper's step semantics. A bound
// store reaches the step's chain, and with it the shard, by the step's
// variable number (see Backend); any other step hashes the name.
func (kv *KV) ApplyStep(tx int, step core.Step) error {
	c := kv.txs.Slot(tx)
	ch := kv.vars.AtVar(kv.bound.stepID(tx, len(c.locals)), step.Var)
	var sh *kvShard
	if ch != nil {
		sh = ch.sh
	} else {
		c.byName++
		ch = kv.vars.Lookup(step.Var)
	}
	val := kv.get(c, tx, ch, step.Var)
	c.locals = append(c.locals, val)
	if step.Kind == core.Read {
		return nil // write-back is the identity on t_ij
	}
	if step.Fn == nil {
		return fmt.Errorf("storage: step on %s has no interpretation", step.Var)
	}
	if sh == nil {
		ch, sh = kv.vars.Slot(step.Var), kv.shard(step.Var)
	}
	kv.put(c, tx, ch, sh, step.Fn(c.locals))
	return nil
}

// Commit implements Backend: stamp tx's installed versions with one fresh
// commit timestamp (begin on each new version, end on each displaced one),
// publish the timestamp in commit order — snapshots only admit timestamps
// whose commits are fully stamped — retire the displaced versions, and run
// the GC up to the minimum active snapshot, once in each shard the
// transaction retired a version into. A transaction that wrote nothing
// takes no timestamp.
func (kv *KV) Commit(tx int) {
	c := kv.txs.Lookup(tx)
	if c == nil {
		return
	}
	if len(c.undo) > 0 {
		ts := kv.commitSeq.Add(1)
		for _, u := range c.undo {
			u.ver.begin.Store(ts)
			if u.prev != nil {
				u.prev.end.Store(ts)
				u.sh.retire(u.prev, u.ver, ts)
			}
		}
		// Publish in commit order: a reader pinning snapClock == ts sees
		// every version of every commit up to ts fully stamped.
		for !kv.snapClock.CompareAndSwap(ts-1, ts) {
			runtime.Gosched()
		}
		min := kv.minActiveSnapshot()
		for i, u := range c.undo {
			if u.prev != nil && !retiredBefore(c.undo, i) {
				u.sh.collect(kv, min)
			}
		}
	}
	c.finish()
}

// retiredBefore reports whether an undo record before undo[i] retired a
// version into undo[i]'s shard, which Commit has collected then already.
//
//optcc:hotpath
func retiredBefore(undo []undoRec, i int) bool {
	for _, u := range undo[:i] {
		if u.prev != nil && u.sh == undo[i].sh {
			return true
		}
	}
	return false
}

// Rollback implements Backend: replay tx's undo log in reverse, restoring
// each displaced chain head (byte-identical — versions are immutable), then
// drop the context so the restart begins with fresh locals. With Recycle
// on, a dying write still at its chain head — a version only this
// transaction could read, since its begin mark admits no snapshot and
// Get skips other transactions' uncommitted versions — returns its payload
// buffer to the shard freelist.
func (kv *KV) Rollback(tx int) {
	c := kv.txs.Lookup(tx)
	if c == nil {
		return
	}
	if len(c.undo) > 0 {
		c.rollbacks++
	}
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := c.undo[i]
		dying := u.ch.head.Load()
		u.ch.head.Store(u.prev)
		if kv.cfg.Recycle && dying == u.ver {
			u.sh.putBuf(dying.rec.Payload)
		}
	}
	c.finish()
}

// State implements Backend.
func (kv *KV) State() core.DB {
	db := core.DB{}
	kv.Scan(func(v core.Var, val core.Value) bool {
		db[v] = val
		return true
	})
	return db
}

// Snapshot deep-copies every chain head's record, for byte-level
// comparisons in tests and tools.
func (kv *KV) Snapshot() map[core.Var]Record {
	out := map[core.Var]Record{}
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		if ver := ch.head.Load(); ver != nil {
			out[v] = Record{
				Scalar:  ver.rec.Scalar,
				Payload: append([]byte(nil), ver.rec.Payload...),
				Sum:     ver.rec.Sum,
			}
		}
		return true
	})
	return out
}

// SnapshotSlots implements SnapshotBackend.
func (kv *KV) SnapshotSlots() int { return len(kv.slots) }

// SnapshotAcquire implements SnapshotBackend: pin the given reader slot to
// the current published commit clock and return the snapshot timestamp.
// The store-then-revalidate loop closes the race with a concurrent GC
// horizon scan: the GC loads the clock before scanning the pins, so a pin
// whose revalidation saw an unchanged clock is either observed by the scan
// or at least as new as the horizon the GC used. Lock-free and
// allocation-free: two atomic loads and a store on the uncontended path.
func (kv *KV) SnapshotAcquire(slot int) int64 {
	sl := &kv.slots[slot]
	kv.activePins.Add(1)
	for {
		s := kv.snapClock.Load()
		sl.ts.Store(s)
		if kv.snapClock.Load() == s {
			return s
		}
	}
}

// SnapshotRelease implements SnapshotBackend: unpin the slot.
func (kv *KV) SnapshotRelease(slot int) {
	kv.slots[slot].ts.Store(-1)
	kv.activePins.Add(-1)
}

// SnapshotRead implements SnapshotBackend: return v's value as of the
// pinned snapshot snap, walking the chain latest-first to the newest
// version with a committed begin <= snap. No lock, no shard mutex, no
// allocation: an immutable map lookup plus atomic pointer loads and the
// payload checksum. The pin guarantees every version the walk accepts is
// safe to checksum — the GC never collects a version whose end exceeds the
// minimum active snapshot. The slot indexes the reader's local counters
// only; visibility comes from snap.
func (kv *KV) SnapshotRead(slot int, v core.Var, snap int64) core.Value {
	return kv.snapshotRead(slot, kv.vars.Lookup(v), v, snap)
}

// SnapshotReadAt implements SnapshotBackend: SnapshotRead reaching v's
// chain by its number id when the table holds v there, and by name
// otherwise.
//
//optcc:hotpath
func (kv *KV) SnapshotReadAt(slot int, id int32, v core.Var, snap int64) core.Value {
	ch := kv.vars.AtVar(id, v)
	if ch == nil {
		kv.slots[slot].byName.Add(1)
		ch = kv.vars.Lookup(v)
	}
	return kv.snapshotRead(slot, ch, v, snap)
}

// snapshotRead is SnapshotRead of v through its chain ch (nil: v has
// none, and reads 0).
//
//optcc:hotpath
func (kv *KV) snapshotRead(slot int, ch *chain, v core.Var, snap int64) core.Value {
	if ch == nil {
		return 0
	}
	for ver := ch.head.Load(); ver != nil; ver = ver.next.Load() {
		b := ver.begin.Load()
		if b < 0 || b > snap {
			continue // uncommitted, or committed after the snapshot
		}
		if e := ver.end.Load(); e != 0 && e <= snap {
			continue // defensive: superseded before the snapshot
		}
		sl := &kv.slots[slot]
		sl.reads.Add(1)
		sl.bytes.Add(int64(len(ver.rec.Payload)))
		if checksum(ver.rec.Payload) != ver.rec.Sum {
			//cclint:ignore hotpath corruption panic is the failure path; it never executes on a healthy run
			panic(fmt.Sprintf("storage: payload corruption on %s (snapshot %d)", v, snap))
		}
		return ver.rec.Scalar
	}
	return 0
}

// VersionsGCed implements SnapshotBackend.
func (kv *KV) VersionsGCed() int64 { return kv.versionsGCed.Load() }

// SnapshotReads implements SnapshotBackend: total reads served through the
// snapshot path (summed over the per-slot counters).
func (kv *KV) SnapshotReads() int64 {
	var n int64
	for i := range kv.slots {
		n += kv.slots[i].reads.Load()
	}
	return n
}

// minActiveSnapshot returns the GC horizon: the oldest snapshot any reader
// has pinned, or the published commit clock when none is pinned (every
// future snapshot will be at least that new). The clock is loaded before
// the pins are scanned — the ordering SnapshotAcquire's revalidation pairs
// with. When the snapshot path is idle the scan is one extra atomic load.
func (kv *KV) minActiveSnapshot() int64 {
	min := kv.snapClock.Load()
	if kv.activePins.Load() == 0 {
		return min
	}
	for i := range kv.slots {
		if s := kv.slots[i].ts.Load(); s >= 0 && s < min {
			min = s
		}
	}
	return min
}

// Stats returns the physical work counters since Reset. It sums the
// transactions' own counters, so it reads a quiescent store: call it
// after the run, not during one.
func (kv *KV) Stats() Stats {
	st := Stats{SnapshotReads: kv.SnapshotReads(), VersionsGCed: kv.versionsGCed.Load()}
	for i := range kv.slots {
		st.BytesRead += kv.slots[i].bytes.Load()
		st.ByName += kv.slots[i].byName.Load()
	}
	kv.txs.Range(func(_ int, c *kvTx) bool {
		st.Reads += c.reads
		st.Writes += c.writes
		st.BytesRead += c.bytesRead
		st.BytesWritten += c.bytesWritten
		st.Rollbacks += c.rollbacks
		st.ByName += c.byName
		return true
	})
	return st
}
