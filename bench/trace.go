package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/report"
	"optcc/internal/storage"
)

// The traced pass measures every layer from outside: decorators around the
// public online.Scheduler and storage.Backend calls record one span per
// call. Spans inside the engine are a later change (ROADMAP item 5).

type layer uint8

const (
	layerOnline layer = iota
	layerStorage
	layerDisk
	numLayers
)

var layerNames = [numLayers]string{"online", "storage", "storage.disk"}

type op uint8

const (
	opTry op = iota
	opCommit
	opAbort
	opVictim
	opApply
	opRollback
	opGroupSync
	numOps
)

var opNames = [numOps]string{"try", "commit", "abort", "victim", "apply", "rollback", "group_sync"}

// span is one decorated call. Its parent is always the round span (the
// decorated calls are leaves: no scheduler call runs inside a backend call
// or the reverse), and tx is the identifier the spans of one transaction
// share (-1 for calls on behalf of none: Victim, GroupSync). n is the number
// of requests a batched Try decided (1 otherwise).
type span struct {
	layer      layer
	op         op
	tx, n      int32
	start, end int64 // ns since the round began
}

// spanBuf is one preallocated span buffer. Writers claim a slot with an
// atomic cursor — no mutex, so the tracer cannot reproduce the run-global
// metMu distortion ROADMAP names. The pad keeps cursors of neighbouring
// buffers off one cache line.
type spanBuf struct {
	cursor atomic.Int64
	spans  []span
	_      [32]byte
}

// tracer owns the span buffers of one traced instance. Buffers are picked
// by transaction id, so the goroutines of a round spread over all of them.
type tracer struct {
	epoch     time.Time
	roundNs   int64 // length of the round span: the last round's sim.Run call
	bufs      []spanBuf
	decisions [3]atomic.Int64 // Try outcomes by online.Decision
}

const traceBufs = 16 // power of two

// newTracer sizes the buffers for rounds of about spansPerRound spans, with
// headroom for restarts and for uneven spread over the buffers.
func newTracer(spansPerRound int) *tracer {
	t := &tracer{bufs: make([]spanBuf, traceBufs)}
	t.resize(2*spansPerRound/traceBufs + 1024)
	return t
}

func (t *tracer) resize(perBuf int) {
	for i := range t.bufs {
		t.bufs[i].spans = make([]span, perBuf)
	}
}

// begin starts a round: cursors and counters back to zero.
func (t *tracer) begin() {
	for i := range t.bufs {
		t.bufs[i].cursor.Store(0)
	}
	for i := range t.decisions {
		t.decisions[i].Store(0)
	}
	t.epoch = time.Now()
}

func (t *tracer) add(l layer, o op, tx, n int, start time.Time) {
	end := time.Since(t.epoch)
	b := &t.bufs[tx&(traceBufs-1)]
	i := b.cursor.Add(1) - 1
	if int(i) < len(b.spans) {
		b.spans[i] = span{layer: l, op: o, tx: int32(tx), n: int32(n),
			start: int64(start.Sub(t.epoch)), end: int64(end)}
	}
}

// dropped is the number of spans that found their buffer full this round.
func (t *tracer) dropped() int {
	d := 0
	for i := range t.bufs {
		if over := int(t.bufs[i].cursor.Load()) - len(t.bufs[i].spans); over > 0 {
			d += over
		}
	}
	return d
}

// each visits the spans of the round just finished.
func (t *tracer) each(fn func(s *span)) {
	for i := range t.bufs {
		b := &t.bufs[i]
		n := min(int(b.cursor.Load()), len(b.spans))
		for k := 0; k < n; k++ {
			fn(&b.spans[k])
		}
	}
}

// callStats aggregates the spans of one (layer, op) over a round.
type callStats struct {
	calls int     // decorated calls
	reqs  int     // requests decided (= calls except for batched Try)
	sumNs float64 // total time inside the calls
	durs  report.Histogram
}

func (c *callStats) meanPerReq() float64 {
	if c.reqs == 0 {
		return 0
	}
	return c.sumNs / float64(c.reqs)
}

type roundTrace struct {
	stats [numLayers][numOps]callStats
}

func (t *tracer) summarize() *roundTrace {
	rt := &roundTrace{}
	t.each(func(s *span) {
		c := &rt.stats[s.layer][s.op]
		d := float64(s.end - s.start)
		c.calls++
		c.reqs += int(s.n)
		c.sumNs += d
		c.durs.Add(d / float64(s.n))
	})
	return rt
}

// layerSum is the total time spent inside one layer's decorated calls.
func (rt *roundTrace) layerSum(l layer) float64 {
	sum := 0.0
	for o := range rt.stats[l] {
		sum += rt.stats[l][o].sumNs
	}
	return sum
}

// traceFile is what bench/out/trace-<workload>.json holds: the round span,
// the spans of the round's first transactions, and per-layer self times
// over the whole round.
type traceFile struct {
	Workload   string           `json:"workload"`
	RoundNs    int64            `json:"round_ns"`
	SpansTotal int              `json:"spans_total"`
	TxLimit    int              `json:"spans_kept_for_tx_below"`
	SelfTimeNs map[string]int64 `json:"self_time_ns"`
	Spans      []traceSpan      `json:"spans"`
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Tx     int    `json:"tx"`
	N      int    `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceTxLimit bounds the trace file: spans are written for transactions
// below this id, whole transactions only.
const traceTxLimit = 2000

// write stores the last round's trace. Span 0 is the round; every call span
// names it as parent. A layer's self time is its spans' total (they have no
// children); the round's self time — the sim engine's own — is the part of
// the round that no call span covers on the wall clock.
func (t *tracer) write(path, workload string) error {
	roundNs := t.roundNs
	var all []span
	t.each(func(s *span) { all = append(all, *s) })
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	tf := traceFile{Workload: workload, RoundNs: roundNs, SpansTotal: len(all),
		TxLimit: traceTxLimit, SelfTimeNs: map[string]int64{}}
	tf.Spans = append(tf.Spans, traceSpan{ID: 0, Parent: -1, Layer: "sim", Op: "round", Tx: -1, N: 1, End: roundNs})
	covered, reach := int64(0), int64(0)
	for _, s := range all {
		tf.SelfTimeNs[layerNames[s.layer]] += s.end - s.start
		if s.end > reach {
			covered += s.end - max(s.start, reach)
			reach = s.end
		}
		if s.tx < traceTxLimit {
			tf.Spans = append(tf.Spans, traceSpan{ID: len(tf.Spans), Parent: 0,
				Layer: layerNames[s.layer], Op: opNames[s.op], Tx: int(s.tx), N: int(s.n),
				Start: s.start, End: s.end})
		}
	}
	tf.SelfTimeNs["sim"] = roundNs - covered
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The decorators keep the engine on the same code path: each embeds what
// it wraps, so every optional interface sim and storage type-assert on is
// still there, and overrides only the timed methods.

func (t *tracer) try(s online.Scheduler, id core.StepID) online.Decision {
	start := time.Now()
	d := s.Try(id)
	t.add(layerOnline, opTry, id.Tx, 1, start)
	t.decisions[d].Add(1)
	return d
}

func (t *tracer) commit(s online.Scheduler, tx int) {
	start := time.Now()
	s.Commit(tx)
	t.add(layerOnline, opCommit, tx, 1, start)
}

func (t *tracer) abort(s online.Scheduler, tx int) {
	start := time.Now()
	s.Abort(tx)
	t.add(layerOnline, opAbort, tx, 1, start)
}

func (t *tracer) victim(s online.Scheduler, stuck []int) (int, bool) {
	start := time.Now()
	v, ok := s.Victim(stuck)
	t.add(layerOnline, opVictim, -1, 1, start)
	return v, ok
}

// tracedCentral wraps a plain scheduler; it must not grow the
// ConcurrentScheduler methods, or sim would leave the central engine.
type tracedCentral struct {
	online.Scheduler
	t *tracer
}

func (s tracedCentral) Try(id core.StepID) online.Decision { return s.t.try(s.Scheduler, id) }
func (s tracedCentral) Commit(tx int)                      { s.t.commit(s.Scheduler, tx) }
func (s tracedCentral) Abort(tx int)                       { s.t.abort(s.Scheduler, tx) }
func (s tracedCentral) Victim(stuck []int) (int, bool)     { return s.t.victim(s.Scheduler, stuck) }

// nativeSched is what every natively concurrent scheduler implements.
type nativeSched interface {
	online.ConcurrentScheduler
	online.BatchTrier
}

type tracedNative struct {
	nativeSched
	t *tracer
}

func (s tracedNative) Try(id core.StepID) online.Decision { return s.t.try(s.nativeSched, id) }
func (s tracedNative) Commit(tx int)                      { s.t.commit(s.nativeSched, tx) }
func (s tracedNative) Abort(tx int)                       { s.t.abort(s.nativeSched, tx) }
func (s tracedNative) Victim(stuck []int) (int, bool)     { return s.t.victim(s.nativeSched, stuck) }

func (s tracedNative) TryBatch(ids []core.StepID) []online.Decision {
	start := time.Now()
	ds := s.nativeSched.TryBatch(ids)
	s.t.add(layerOnline, opTry, ids[0].Tx, len(ids), start)
	for _, d := range ds {
		s.t.decisions[d].Add(1)
	}
	return ds
}

type tracedSnapshotSched struct {
	tracedNative
	online.SnapshotSource
}

type tracedWaitsForSched struct {
	tracedNative
	online.WaitsForProvider
}

func traceSched(s online.Scheduler, t *tracer) online.Scheduler {
	ns, ok := s.(nativeSched)
	if !ok {
		return tracedCentral{s, t}
	}
	tn := tracedNative{ns, t}
	if src, ok := s.(online.SnapshotSource); ok {
		return tracedSnapshotSched{tn, src}
	}
	if wf, ok := s.(online.WaitsForProvider); ok {
		return tracedWaitsForSched{tn, wf}
	}
	return tn
}

func (t *tracer) apply(be storage.Backend, tx int, step core.Step) error {
	start := time.Now()
	err := be.ApplyStep(tx, step)
	t.add(layerStorage, opApply, tx, 1, start)
	return err
}

func (t *tracer) backendCommit(be storage.Backend, tx int) {
	start := time.Now()
	be.Commit(tx)
	t.add(layerStorage, opCommit, tx, 1, start)
}

func (t *tracer) rollback(be storage.Backend, tx int) {
	start := time.Now()
	be.Rollback(tx)
	t.add(layerStorage, opRollback, tx, 1, start)
}

// tracedKV keeps *storage.KV's SnapshotBackend methods by embedding.
type tracedKV struct {
	*storage.KV
	t *tracer
}

func (b tracedKV) ApplyStep(tx int, st core.Step) error { return b.t.apply(b.KV, tx, st) }
func (b tracedKV) Commit(tx int)                        { b.t.backendCommit(b.KV, tx) }
func (b tracedKV) Rollback(tx int)                      { b.t.rollback(b.KV, tx) }

// tracedDisk keeps *storage.Disk's DurableBackend, GroupSyncer and
// SyncCoalesces methods by embedding, and times the group fsync as well.
type tracedDisk struct {
	*storage.Disk
	t *tracer
}

func (b tracedDisk) ApplyStep(tx int, st core.Step) error { return b.t.apply(b.Disk, tx, st) }
func (b tracedDisk) Commit(tx int)                        { b.t.backendCommit(b.Disk, tx) }
func (b tracedDisk) Rollback(tx int)                      { b.t.rollback(b.Disk, tx) }

func (b tracedDisk) GroupSync() error {
	start := time.Now()
	err := b.Disk.GroupSync()
	b.t.add(layerDisk, opGroupSync, -1, 1, start)
	return err
}

// traceBackend decorates the backends that do storage work; the noop
// backend stays bare, so storage.* metrics are absent where there is no
// storage layer to measure.
func traceBackend(be storage.Backend, t *tracer) storage.Backend {
	switch b := be.(type) {
	case *storage.KV:
		return tracedKV{b, t}
	case *storage.Disk:
		return tracedDisk{b, t}
	}
	return be
}
