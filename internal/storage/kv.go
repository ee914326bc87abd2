package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
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
//
// Versions are the store's own memory: a version no reader can reach any
// more goes back, payload buffer and all, to its shard's freelist, and the
// next write there reuses both (kvShard). On the freelist, next links the
// free versions.
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

// abortedMark is the begin stamp of a rolled-back write left in its chain
// because another write lies above it: negative like an uncommitted mark,
// but no transaction's, so every reader skips it.
const abortedMark = math.MinInt64

// chain is one variable's version list: the CAS-installed head and the
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

// txPin is where a transaction pins the commit clock from its first store
// access to its Commit or Rollback (KV.claim): -1 while no transaction holds
// it. It holds back the GC horizon exactly as a snapshot pin does.
type txPin struct {
	ts atomic.Int64
	_  [txtab.LineSize - 8]byte
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
	// unlinked once no reader could reach them (each then returns to its
	// shard's freelist).
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
	// Shards is the number of KV shards, each with its own version
	// freelist and retired-version queue; variables are placed with
	// lockmgr.ShardOfVar, the same partition function as the sharded lock
	// table and the runtime's decision latches, so storage, locks and
	// latches always agree on ownership (minimum 1).
	Shards int
	// ValueSize is the payload size in bytes for every record (0 keeps
	// records scalar-only).
	ValueSize int
	// Recycle is ignored: the KV store always recycles its versions, under
	// every scheduler (DESIGN.md "Multiversion storage").
	//
	// Deprecated: recycling is always on; the field is kept so existing
	// configurations compile.
	Recycle bool
	// SnapshotSlots is the number of concurrent snapshot pins the store
	// supports (0 = defaultSnapshotSlots). Each reader of the snapshot
	// path owns one slot; the runtime maps user goroutines onto slots and
	// falls back to the transactional path when it has more users than
	// slots. The store keeps as many pins for the transactions live at
	// once (KV.claim); while more are live, reclamation waits.
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

// retiredVer is a version that left, or will leave, its chain and waits to
// be reused. It is reused once no reader can hold it and its writer is done
// with it: every pin is at least at its horizon (KV.minActiveSnapshot), it
// is unlinked, and its begin stamp is final (committed at or below the
// horizon, or aborted).
type retiredVer struct {
	ver *version // the version to reuse
	// succ is the committed version written over ver, whose next pointer
	// the unlink clears; nil once unlinked, and for a write its own
	// rollback unlinked.
	succ *version
	// at is the horizon ver waits for: the superseding commit's timestamp,
	// or for a rolled-back write one past the clock read after its unlink,
	// so only pins taken after the unlink pass it.
	at int64
	// under is set when ver left its chain under a committed write rather
	// than by its own rollback. If ver then turns out aborted, the version
	// below it was written over by ver alone, so nobody else retires it:
	// it leaves with ver.
	under bool
}

// kvShard is one shard's version memory: the slabs it carved, its
// freelist of reusable versions (each keeping its payload buffer) and the
// retired-version queue feeding it. Sharding it like the writes keeps
// collection contention as partitioned as the writes themselves. Every
// version of a KV has one payload size, so one freelist serves every
// write.
type kvShard struct {
	mu      sync.Mutex
	free    *version // reusable versions, linked through next
	nfree   int
	retired []retiredVer
	// slabs are every version the shard ever carved, which Reset sweeps.
	slabs  [][]version
	carved int
	// heads counts the shard's chains with no head while Reset lays them
	// out.
	heads int
}

// carveBytes bounds one batch of versions a freelist miss carves: a run's
// warm-up allocates two objects per batch, not two per write.
const carveBytes = 64 << 10

// getVersion pops a reusable version with a payload of size bytes from the
// shard's freelist, carving a batch when it is empty. Its contents are
// stale; the caller overwrites every field and payload byte.
//
//optcc:hotpath
func (sh *kvShard) getVersion(size int) *version {
	sh.mu.Lock()
	if sh.free == nil {
		//cclint:ignore hotpath an empty freelist is the warm-up path; steady state pops a recycled version
		sh.carveLocked(size, max(1, min(64, carveBytes/max(size, 1))))
	}
	ver := sh.free
	sh.free = ver.next.Load()
	sh.nfree--
	sh.mu.Unlock()
	return ver
}

// freeLocked returns a version no reader can hold to the freelist; the
// caller holds mu.
//
//optcc:hotpath
//optcc:release
func (sh *kvShard) freeLocked(ver *version) {
	ver.next.Store(sh.free)
	sh.free = ver
	sh.nfree++
}

// carveLocked adds n versions with payloads of size bytes to the freelist,
// from one slab of headers and one payload arena; the caller holds mu.
func (sh *kvShard) carveLocked(size, n int) {
	vs := make([]version, n)
	arena := make([]byte, n*size)
	for i := range vs {
		vs[i].rec.Payload = arena[i*size : (i+1)*size : (i+1)*size]
		sh.freeLocked(&vs[i])
	}
	sh.slabs = append(sh.slabs, vs)
	sh.carved += n
}

// retire queues a version that left, or will leave, its chain for reuse.
func (sh *kvShard) retire(r retiredVer) {
	sh.mu.Lock()
	sh.retired = append(sh.retired, r)
	sh.mu.Unlock()
}

// collect moves the shard's retired versions that no reader can hold to
// the freelist. First every version superseded at or before horizon is
// unlinked from its chain. No reader can step onto it: every live reader
// holds a pin at or above the horizon, taken after the superseder's begin
// stamp (at <= horizon) was published, so its walk accepts the superseder
// first, and every later reader pins a clock at least as new. Then each
// unlinked version whose horizon has passed is free once its begin stamp
// is final. A version whose writer is still live (a non-strict scheduler
// let another transaction write over it) waits for its writer's commit or
// rollback; one committed after the horizon waits for the horizon to pass
// its commit, by which time its writer has retired what it wrote over. An
// aborted version that left under a committed write frees the versions
// below it that only it wrote over. A version still waiting is retried at
// a later collect. The two passes keep a version freed in this pass from
// being unlinked through later — its next then links the freelist. See
// DESIGN.md "Multiversion storage" for the full argument.
func (sh *kvShard) collect(kv *KV, horizon int64) {
	sh.mu.Lock()
	for i := range sh.retired {
		if r := &sh.retired[i]; r.at <= horizon && r.succ != nil {
			r.succ.next.Store(nil)
			r.succ = nil
			kv.versionsGCed.Add(1)
		}
	}
	kept := sh.retired[:0]
	for _, r := range sh.retired {
		b := r.ver.begin.Load()
		if r.succ != nil || r.at > horizon || b > horizon || (b < 0 && b != abortedMark) {
			kept = append(kept, r)
			continue
		}
		// An aborted version that left under a committed write takes the
		// version below it along: cut off by the same unlink, written over
		// by nobody else.
		for ver := r.ver; ; {
			below := ver.next.Load()
			sh.freeLocked(ver)
			if !r.under || b != abortedMark || below == nil {
				break
			}
			if ver, b = below, below.begin.Load(); b > horizon || (b < 0 && b != abortedMark) {
				// r's slot is consumed, so kept (no longer than the
				// entries visited) overwrites none not yet visited.
				kept = append(kept, retiredVer{ver: ver, at: r.at, under: true})
				break
			}
		}
	}
	clear(sh.retired[len(kept):]) // drop version refs
	sh.retired = kept
	sh.mu.Unlock()
}

// txInline is how many locals and logged writes a transaction keeps inside
// its own slot: a transaction of up to txInline steps needs no buffer of
// its own, and a longer one grows its buffers once (the slot keeps their
// capacity for its next attempt and the next run).
const txInline = 4

// kvTx is a transaction's slot in the store's internal/txtab table: the
// paper's local variables t_i1..t_ij, the undo log of installed versions,
// the pin it holds, and the transaction's own step counters, which Stats
// sums. Only the transaction's own steps touch it (the package's
// transaction discipline), so nothing in it is locked or atomic.
type kvTx struct {
	locals   []core.Value
	undo     []undoRec
	localBuf [txInline]core.Value
	undoBuf  [txInline]undoRec
	// pin is what KV.claim returned at the transaction's first access, 0
	// before it.
	pin int32

	reads, writes, bytesRead, bytesWritten, rollbacks, byName int64
}

// newKVTxs points each new slot's buffers at its inline arrays.
func newKVTxs(slots []kvTx) {
	for i := range slots {
		slots[i].locals, slots[i].undo = slots[i].localBuf[:0], slots[i].undoBuf[:0]
	}
}

// finish empties c for the transaction's next attempt, dropping the undo
// log's version references and the pin, which the caller has released.
func (c *kvTx) finish() {
	c.locals = c.locals[:0]
	clear(c.undo)
	c.undo = c.undo[:0]
	c.pin = 0
}

// hold pins the commit clock for tx, whose context is c, at its first
// store access; the pin lasts until its Commit or Rollback. Every version
// the transaction may reach from then on stays linked and off the
// freelists (kvShard.collect), so no walk is cut short and no buffer is
// reused under a checksum or a copy.
//
//optcc:hotpath
func (kv *KV) hold(c *kvTx, tx int) {
	if c.pin == 0 {
		c.pin = kv.claim(tx)
	}
}

// claim takes a free transaction pin for tx by CAS and pins the commit
// clock in it (pin); it returns the pin's index plus one. The CAS stores
// 0, which can only hold the horizon further back until pin stores the
// clock. It probes from a hash of tx into the first txSpread pins, so
// transactions live at once seldom try the same one and the horizon scan
// stays about as short as they are many. When every pin is taken, claim
// counts tx in overflow instead, which holds the horizon at 0 until
// unclaim, and returns -1.
//
//optcc:hotpath
func (kv *KV) claim(tx int) int32 {
	n := len(kv.txPins)
	i := int(uint32(tx) * 0x9E3779B1 >> 16 % uint32(kv.txSpread))
	for k := 0; k < n; k++ {
		if p := &kv.txPins[i].ts; p.Load() < 0 && p.CompareAndSwap(-1, 0) {
			kv.pin(p, &kv.txHigh, i)
			return int32(i + 1)
		}
		if i++; i == n {
			i = 0
		}
	}
	kv.overflow.Add(1)
	return -1
}

// unclaim releases what claim returned (0: nothing).
//
//optcc:hotpath
func (kv *KV) unclaim(pin int32) {
	switch {
	case pin > 0:
		kv.txPins[pin-1].ts.Store(-1)
	case pin < 0:
		kv.overflow.Add(-1)
	}
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
	// snapClock never observes a half-stamped commit. Every writer commit
	// writes both, and versionsGCed, so the three sit on a cache line of
	// their own, away from the fields around them that every access reads.
	_            [txtab.LineSize - 8]byte
	commitSeq    atomic.Int64
	snapClock    atomic.Int64
	versionsGCed atomic.Int64
	_            [txtab.LineSize - 8]byte

	// slots are the snapshot pins; pinHigh is one past the highest slot
	// ever pinned since Reset, where the GC's horizon scan stops.
	slots   []readerSlot
	pinHigh atomic.Int32

	// txPins are the live transactions' pins (claim), as many as there are
	// snapshot slots; a transaction probes from a hash of its number into
	// the first txSpread. txHigh is one past the highest taken since Reset,
	// where the horizon scan stops. overflow counts the live transactions
	// that found every pin taken.
	txPins   []txPin
	txSpread int
	txHigh   atomic.Int32
	overflow atomic.Int32

	// txs holds every transaction's context, found by its number with no
	// lock; a slot keeps its buffers' capacity across transactions and
	// runs, so a warm store allocates no per-transaction bookkeeping.
	txs *txtab.Table[kvTx]
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
		txPins: make([]txPin, cfg.SnapshotSlots),
		txs:    txtab.New(newKVTxs),
	}
	kv.txSpread = min(len(kv.txPins), max(4, 2*runtime.GOMAXPROCS(0)))
	kv.unpinAll()
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
// touches every byte, the way a real engine's page checksum does. Where
// foldKernel holds (amd64 with AVX2, outside race builds) xorFold128
// folds the leading 128-byte blocks 32 bytes per instruction into one
// word; foldWords folds the rest, or the whole payload elsewhere. The
// result equals the byte-at-a-time fold exactly, since XOR is associative,
// commutative and lane-independent (TestChecksumEquivalence and
// FuzzChecksum hold it to the reference).
//
//optcc:hotpath
func checksum(p []byte) byte {
	var w uint64
	if foldKernel && len(p) >= 128 {
		n := len(p) &^ 127
		w = xorFold128(&p[0], n)
		p = p[n:]
	}
	return foldWords(w, p)
}

// foldWords XORs p into w and folds the word down to one byte: four
// independent accumulators over 32-byte blocks, then single words, then
// the word folded to a byte and the 0–7 tail bytes XORed in. A
// single-accumulator word loop measured 3× slower at 4 KiB.
//
//optcc:hotpath
func foldWords(w uint64, p []byte) byte {
	a, b, c, d := w, uint64(0), uint64(0), uint64(0)
	for ; len(p) >= 32; p = p[32:] {
		a ^= binary.LittleEndian.Uint64(p)
		b ^= binary.LittleEndian.Uint64(p[8:])
		c ^= binary.LittleEndian.Uint64(p[16:])
		d ^= binary.LittleEndian.Uint64(p[24:])
	}
	for ; len(p) >= 8; p = p[8:] {
		a ^= binary.LittleEndian.Uint64(p)
	}
	w = a ^ b ^ c ^ d
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

// build makes ver, a version off the freelist, the version tx writes over
// prev, stamped begin=mark: prev's payload is copied (or the fresh fill
// when prev is nil), the scalar is stamped into the first 8 bytes, and the
// checksum is computed. Every field and payload byte is overwritten, since
// a reused version holds stale ones. The caller's transaction is pinned
// (KV.hold), so prev cannot be reused under the copy.
//
//optcc:hotpath
func build(ver, prev *version, scalar core.Value, mark int64) {
	p := ver.rec.Payload
	if prev != nil {
		copy(p, prev.rec.Payload)
	} else {
		fillFresh(p)
	}
	stampScalar(p, scalar)
	ver.rec.Scalar, ver.rec.Sum = scalar, checksum(p)
	ver.begin.Store(mark)
	ver.end.Store(0)
	ver.next.Store(prev)
}

// fillFresh overwrites p with the fresh-payload pattern p[i] = byte(i).
// After the first period it doubles the filled prefix, which stays a
// whole number of 256-byte periods, so a 4 KiB payload takes five copies.
//
//optcc:hotpath
func fillFresh(p []byte) {
	for n := copy(p, fillPeriod[:]); n < len(p); {
		n += copy(p[n:], p[:n])
	}
}

// stampBytes is how many leading payload bytes carry the scalar.
const stampBytes = 8

// stampScalar writes scalar into the first 8 bytes of p, little-endian.
//
//optcc:hotpath
func stampScalar(p []byte, scalar core.Value) {
	u := uint64(scalar)
	for i := 0; i < stampBytes && i < len(p); i++ {
		p[i] = byte(u >> (8 * i))
	}
}

// isFresh reports whether p holds the fresh-payload pattern past its
// stamped bytes, comparing a 256-byte period at a time.
func isFresh(p []byte) bool {
	if len(p) <= stampBytes {
		return true
	}
	n := min(len(p), len(fillPeriod))
	if !bytes.Equal(p[stampBytes:n], fillPeriod[stampBytes:n]) {
		return false
	}
	for ; n < len(p); n += len(fillPeriod) {
		end := min(len(p), n+len(fillPeriod))
		if !bytes.Equal(p[n:end], fillPeriod[:end-n]) {
			return false
		}
	}
	return true
}

// loadHead makes the begin=0 version of scalar ch's whole chain. The head
// is reused in place, never a new version: a head the last Reset left
// (begin 0 — no write since replaced it, or a rollback restored it) still
// holds the fresh pattern unless damaged, so its payload is verified, a
// read, and refilled only when damaged; any other head was written since,
// so its payload is refilled. Either way only the scalar is stamped anew.
// Cutting the head's next drops its older versions, which sweep has put
// back on the freelists. Safe only because no transaction or snapshot is
// live during Reset: nothing can be reading the head's record.
func (kv *KV) loadHead(ch *chain, scalar core.Value) {
	h := ch.head.Load()
	switch {
	case h == nil:
		h = ch.sh.getVersion(kv.cfg.ValueSize)
		fillFresh(h.rec.Payload)
	case h.begin.Load() != 0 || !isFresh(h.rec.Payload):
		fillFresh(h.rec.Payload)
	}
	p := h.rec.Payload
	stampScalar(p, scalar)
	h.rec.Scalar, h.rec.Sum = scalar, checksum(p)
	h.begin.Store(0)
	h.end.Store(0)
	h.next.Store(nil)
	ch.head.Store(h)
}

// Reset implements Backend: drop everything and load init, one chain with
// one begin=0 version per variable with its configured payload size, laid
// out in sorted variable order (core.System.Vars order, so a bound step's
// number indexes the table). When init has the same variables as the
// current table (a runtime resetting the store before every run over one
// system), the table is kept and each chain's head is reused in place
// (loadHead), so a repeated Reset allocates nothing and rewrites only the
// payloads written since the last one. A store bound to a System and reset
// to that System's shared initial state loads it by variable number,
// hashing no name. Every other version goes back to the freelists (sweep);
// the first Reset carves its versions from one slab and one payload arena
// per shard. No transaction or snapshot may be live during Reset
// (Backend.Reset); init is only read.
func (kv *KV) Reset(init core.DB) {
	vars, vals := kv.bound.layout(init)
	switch {
	case vals != nil && kv.vars.LaidOut(vars): // the table is this System's
	case vals != nil:
		kv.relayout(vars)
	case !kv.vars.SameVars(init):
		kv.relayout(slices.Sorted(maps.Keys(init)))
	}
	kv.txs.Range(func(_ int, c *kvTx) bool {
		c.finish()
		c.reads, c.writes, c.bytesRead, c.bytesWritten, c.rollbacks, c.byName = 0, 0, 0, 0, 0, 0
		return true
	})
	kv.commitSeq.Store(0)
	kv.snapClock.Store(0)
	kv.unpinAll()
	for i := range kv.slots {
		kv.slots[i].reads.Store(0)
		kv.slots[i].bytes.Store(0)
		kv.slots[i].byName.Store(0)
	}
	kv.versionsGCed.Store(0)
	kv.sweep()
	i := 0
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		x := core.Value(0)
		if vals != nil {
			x = vals[i]
		} else {
			x = init[v]
		}
		i++
		kv.loadHead(ch, x)
		return true
	})
}

// relayout replaces the table with one over vars, in that order, and sets
// each chain's shard. The old table's versions go back to the freelists
// with every other non-head version (sweep).
func (kv *KV) relayout(vars []core.Var) {
	kv.vars = vartab.New[chain](vars)
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		ch.sh = kv.shard(v)
		return true
	})
}

// sweep rebuilds every shard's freelist from the versions it carved: all
// of them but the current table's chain heads, which Reset reloads in
// place. So every version a round left anywhere — retired, still linked
// below a head, or cut off with a chain's older suffix — comes back, and
// none twice. Each shard's freelist is then topped up, in one carve, to
// the chains it has no head for. Reset calls it with no reader live. A
// mark in end (never negative on a live version) tells the heads apart.
func (kv *KV) sweep() {
	for i := range kv.shards {
		sh := &kv.shards[i]
		clear(sh.retired)
		sh.retired = sh.retired[:0]
		sh.heads = 0
		for _, slab := range sh.slabs {
			for j := range slab {
				slab[j].end.Store(-1)
			}
		}
	}
	kv.vars.Range(func(_ core.Var, ch *chain) bool {
		if h := ch.head.Load(); h != nil {
			h.end.Store(0)
		} else {
			ch.sh.heads++
		}
		return true
	})
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		sh.free, sh.nfree = nil, 0
		for _, slab := range sh.slabs {
			for j := range slab {
				if slab[j].end.Load() < 0 {
					sh.freeLocked(&slab[j])
				}
			}
		}
		if sh.heads > sh.nfree {
			sh.carveLocked(kv.cfg.ValueSize, sh.heads-sh.nfree)
		}
		sh.mu.Unlock()
	}
}

// Get implements Backend: walk tx's chain view lock-free and return the
// newest version that is either committed or tx's own uncommitted write
// (read-your-writes). Another transaction's uncommitted version is skipped
// without being checksummed. The read pins tx (hold) before it loads the
// head, so no version it reaches is reused before its checksum is done, and
// none it walks through is unlinked under it.
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
	kv.hold(c, tx)
	mark := uncommittedMark(tx)
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
	return 0
}

// Put implements Backend: build the copy-on-write version in a version off
// the shard's freelist, outside any critical section, and CAS-install it as
// the chain head, stamped with tx's uncommitted mark; the displaced head
// goes to tx's undo log. A lost install race (concurrent writers —
// non-strict schedulers only) rebuilds the same version against the new
// head.
func (kv *KV) Put(tx int, v core.Var, scalar core.Value) {
	kv.put(kv.txs.Slot(tx), tx, kv.vars.Slot(v), v, scalar)
}

// put is Put for a caller already holding tx's context c and v's chain ch,
// so a write step looks it up once. The write pins tx like a read: prev
// must not be reused under the copy, nor come back as the head before the
// CAS.
//
//optcc:hotpath
func (kv *KV) put(c *kvTx, tx int, ch *chain, v core.Var, scalar core.Value) {
	kv.hold(c, tx)
	sh := ch.sh
	if sh == nil {
		sh = kv.shard(v)
	}
	ver := sh.getVersion(kv.cfg.ValueSize)
	mark := uncommittedMark(tx)
	prev := ch.head.Load()
	for {
		build(ver, prev, scalar, mark)
		if ch.head.CompareAndSwap(prev, ver) {
			break
		}
		prev = ch.head.Load()
	}
	c.writes++
	c.bytesWritten += int64(len(ver.rec.Payload))
	//cclint:ignore hotpath the undo log starts inline and keeps any capacity it grows
	c.undo = append(c.undo, undoRec{ch: ch, sh: sh, ver: ver, prev: prev})
}

// Scan implements Backend: visit every chain head's scalar without taking
// any lock (the table's map is immutable and heads are atomic), pinned
// like a transaction for the whole visit. The view is not a consistent cut
// while writers are active; State after quiescence is.
func (kv *KV) Scan(fn func(v core.Var, scalar core.Value) bool) {
	pin := kv.claim(0)
	kv.vars.Range(func(v core.Var, ch *chain) bool {
		ver := ch.head.Load()
		return ver == nil || fn(v, ver.rec.Scalar)
	})
	kv.unclaim(pin)
}

// ApplyStep implements Backend with the paper's step semantics. A bound
// store reaches the step's chain by the step's variable number (see
// Backend); any other step hashes the name.
func (kv *KV) ApplyStep(tx int, step core.Step) error {
	c := kv.txs.Slot(tx)
	ch := kv.vars.AtVar(kv.bound.stepID(tx, len(c.locals)), step.Var)
	if ch == nil {
		c.byName++
		ch = kv.vars.Lookup(step.Var)
	}
	c.locals = append(c.locals, kv.get(c, tx, ch, step.Var))
	if step.Kind == core.Read {
		return nil // write-back is the identity on t_ij
	}
	if step.Fn == nil {
		return fmt.Errorf("storage: step on %s has no interpretation", step.Var)
	}
	if ch == nil {
		ch = kv.vars.Slot(step.Var) // an update of a variable with no chain yet
	}
	kv.put(c, tx, ch, step.Var, step.Fn(c.locals))
	return nil
}

// Commit implements Backend: stamp tx's installed versions with one fresh
// commit timestamp (begin on each new version, end on each displaced one),
// publish the timestamp in commit order — snapshots only admit timestamps
// whose commits are fully stamped — retire the displaced versions, release
// tx's pin, and run the GC up to the minimum active pin, once in each
// shard the transaction retired a version into. The pin goes before the
// horizon is read, so a commit frees what it wrote over when no other
// reader holds it. A displaced version another transaction wrote and has
// not finished (a non-strict scheduler let tx write over it) is retired
// too; collect waits for its writer. A transaction that wrote nothing
// takes no timestamp.
func (kv *KV) Commit(tx int) {
	c := kv.txs.Lookup(tx)
	if c == nil {
		return
	}
	if len(c.undo) == 0 {
		kv.unclaim(c.pin)
		c.finish()
		return
	}
	ts := kv.commitSeq.Add(1)
	for _, u := range c.undo {
		u.ver.begin.Store(ts)
		if u.prev == nil {
			continue
		}
		u.prev.end.Store(ts)
		u.sh.retire(retiredVer{ver: u.prev, succ: u.ver, at: ts, under: true})
	}
	// Publish in commit order: a reader pinning snapClock == ts sees
	// every version of every commit up to ts fully stamped.
	for !kv.snapClock.CompareAndSwap(ts-1, ts) {
		runtime.Gosched()
	}
	kv.unclaim(c.pin)
	min := kv.minActiveSnapshot()
	for i, u := range c.undo {
		if u.prev != nil && !retiredBefore(c.undo, i) {
			u.sh.collect(kv, min)
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
// release tx's pin and drop the context so the restart begins with fresh
// locals. Every dying write is stamped with the abortedMark, which every
// reader skips, restart included, and which tells collect its writer is
// done with it. A dying write is unlinked only while it is still its
// chain's head, and is then retired for reuse: a reader may have reached
// it before the unlink (and skipped it — its begin mark admits no snapshot
// and Get skips other transactions' uncommitted versions), so it waits
// like a superseded version, for the horizon to pass the clock read after
// the unlink, which every pin taken before the unlink holds back. A dying
// write another transaction already wrote over — a non-strict scheduler
// let it — stays in the chain, and leaves it when the write over it
// commits; restoring the head under it would relink versions a commit may
// since have retired.
// The mark is stored after the unlink's CAS: once it is, collect may reuse
// the version, which must then not be compared as the head.
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
		unlinked := u.ch.head.CompareAndSwap(u.ver, u.prev)
		u.ver.begin.Store(abortedMark)
		if unlinked {
			u.sh.retire(retiredVer{ver: u.ver, at: kv.snapClock.Load() + 1})
		}
	}
	kv.unclaim(c.pin)
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
	pin := kv.claim(0)
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
	kv.unclaim(pin)
	return out
}

// SnapshotSlots implements SnapshotBackend.
func (kv *KV) SnapshotSlots() int { return len(kv.slots) }

// SnapshotAcquire implements SnapshotBackend: pin the given reader slot to
// the current published commit clock and return the snapshot timestamp.
// Lock-free and allocation-free: three atomic loads and a store on the
// uncontended path, none of them a write to a line another user writes.
//
//optcc:hotpath
func (kv *KV) SnapshotAcquire(slot int) int64 {
	return kv.pin(&kv.slots[slot].ts, &kv.pinHigh, slot)
}

// pin publishes the current commit clock in ts, the i-th of the pins a
// horizon scan reads below high, and returns it. The pin first raises high
// past i, if it lies below. The store-then-revalidate loop closes the race
// with a concurrent horizon scan (minActiveSnapshot): the scan loads the
// clock before the marks and the pins, so a pin whose revalidation saw an
// unchanged clock is either observed by the scan or at least as new as
// the horizon the scan returns.
//
//optcc:hotpath
func (kv *KV) pin(ts *atomic.Int64, high *atomic.Int32, i int) int64 {
	for n := high.Load(); int(n) <= i; n = high.Load() {
		if high.CompareAndSwap(n, int32(i+1)) {
			break
		}
	}
	for {
		s := kv.snapClock.Load()
		ts.Store(s)
		if kv.snapClock.Load() == s {
			return s
		}
	}
}

// SnapshotRelease implements SnapshotBackend: unpin the slot.
//
//optcc:hotpath
func (kv *KV) SnapshotRelease(slot int) {
	kv.slots[slot].ts.Store(-1)
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

// minActiveSnapshot returns the GC horizon: the oldest clock any snapshot
// reader or live transaction has pinned, or the published commit clock
// when none is pinned (every future pin will be at least that new), or 0
// while a live transaction found no pin (overflow). The clock is loaded
// before overflow, the high-water marks and the pins — the ordering pin's
// revalidation pairs with — and the scans cover only the pins below the
// marks: the users' own, when the runtime pins slot = user.
//
//optcc:hotpath
func (kv *KV) minActiveSnapshot() int64 {
	min := kv.snapClock.Load()
	if kv.overflow.Load() != 0 {
		return 0
	}
	for i, n := 0, int(kv.pinHigh.Load()); i < n; i++ {
		if s := kv.slots[i].ts.Load(); s >= 0 && s < min {
			min = s
		}
	}
	for i, n := 0, int(kv.txHigh.Load()); i < n; i++ {
		if s := kv.txPins[i].ts.Load(); s >= 0 && s < min {
			min = s
		}
	}
	return min
}

// unpinAll releases every snapshot and transaction pin, for a store with
// no reader live (NewKV, Reset).
func (kv *KV) unpinAll() {
	for i := range kv.slots {
		kv.slots[i].ts.Store(-1)
	}
	for i := range kv.txPins {
		kv.txPins[i].ts.Store(-1)
	}
	kv.pinHigh.Store(0)
	kv.txHigh.Store(0)
	kv.overflow.Store(0)
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
