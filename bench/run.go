package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"optcc/internal/conflict"
	"optcc/internal/core"
	"optcc/internal/report"
	"optcc/internal/sim"
	"optcc/internal/storage"
)

const (
	warmupRounds = 3
	// passSegments is how many times a pass sets its workload up; each
	// set-up is followed by its share of the pass's timed rounds. setup_s
	// is the median over the set-ups, and every other metric the median
	// over the rounds of all of them, so neither one instance's memory
	// layout nor one slow stretch of the box decides a number.
	passSegments = 3
	// defaultVerifyJobs is the size of an untimed verification round;
	// small enough for the conflict graph's n² adjacency matrix.
	defaultVerifyJobs = 2000
	// recoveryReps is how often a durable segment's directory is reopened:
	// recovery_ms is a time of a few milliseconds of file operations.
	recoveryReps = 5
	// knownBugRounds and knownBugBudget gate oracleCSRKnownBug: that many
	// verification rounds, of which at most the budget may fail. At the
	// parent commit 11 of 200 rounds fail, so 3 of 4 do in 7 runs of 10 000.
	knownBugRounds = 4
	knownBugBudget = 2
)

// env is what every pass of one invocation shares.
type env struct {
	seed  int64
	users int // = shards: the fixed multiprogramming level
	// verifyJobs is the job count of a verification round.
	verifyJobs int
	// segments is passSegments, or 1 in the tests.
	segments int
	outDir   string
	dirSeq   int
}

func (e *env) freshDir(prefix string) string {
	e.dirSeq++
	return filepath.Join(e.outDir, fmt.Sprintf("%s-%d-%d", prefix, os.Getpid(), e.dirSeq))
}

// budget ends a segment after a number of rounds or, when seconds is set,
// after that much measuring time.
type budget struct {
	seconds float64
	rounds  int
}

func (b budget) spent(rounds int, since time.Time) bool {
	if b.seconds > 0 {
		return rounds >= 3 && time.Since(since).Seconds() >= b.seconds
	}
	return rounds >= b.rounds
}

// instance is one set-up of a workload: generated inputs, scheduler and
// backend, warmed up and ready for timed rounds.
type instance struct {
	w    *spec
	cfg  sim.Config
	tr   *tracer       // nil on the untraced instance
	kv   *storage.KV   // the undecorated backend, when it is a KV
	disk *storage.Disk // the undecorated backend, when it is a Disk
	// userBytes is the payload a round's committed transactions write:
	// 8 bytes (one scalar) per non-Read step.
	userBytes int
}

// build generates a workload's inputs and constructs its scheduler and
// backend, decorated on the traced instance.
func build(w *spec, e *env, jobs int, traced bool) (*instance, error) {
	in := &instance{w: w}
	sys := w.gen(e.seed, jobs)
	for _, tx := range sys.Txs {
		for _, st := range tx.Steps {
			if st.Kind != core.Read {
				in.userBytes += 8
			}
		}
	}
	sched := w.sched(e.users)
	var be storage.Backend
	if w.backend != nil {
		var err error
		if be, err = w.backend(e.freshDir("wal"), e.users); err != nil {
			return nil, fmt.Errorf("%s: backend: %w", w.name, err)
		}
		in.kv, _ = be.(*storage.KV)
		in.disk, _ = be.(*storage.Disk)
	}
	if traced {
		in.tr = newTracer(2*sys.StepCount() + 3*jobs)
		sched = traceSched(sched, in.tr)
		be = traceBackend(be, in.tr)
	}
	in.cfg = sim.Config{System: sys, Sched: sched, Backend: be, Users: e.users, Batch: w.batch, Seed: e.seed}
	return in, nil
}

// setUp is everything setup_s counts: generation, construction and the
// warm-up rounds.
func setUp(w *spec, e *env, traced bool) (*instance, error) {
	in, err := build(w, e, w.roundJobs, traced)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupRounds; i++ {
		if _, _, err := in.round(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *instance) jobs() int { return in.cfg.System.NumTxs() }

// round runs one sim.Run over the instance's fixed job set. On the traced
// instance it returns the round's span summary too; a round that overflowed
// the span buffers is repeated with larger ones and not counted.
func (in *instance) round() (*sim.Metrics, *roundTrace, error) {
	for {
		// Collect the previous round's histograms and logs now, not in the
		// middle of the timed region.
		runtime.GC()
		if in.tr != nil {
			in.tr.begin()
		}
		m, err := sim.Run(in.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.w.name, err)
		}
		if in.tr == nil {
			return m, nil, nil
		}
		in.tr.roundNs = int64(time.Since(in.tr.epoch))
		if in.tr.dropped() == 0 {
			return m, in.tr.summarize(), nil
		}
		in.tr.resize(2 * len(in.tr.bufs[0].spans))
	}
}

func (in *instance) close() {
	if in.disk != nil {
		in.disk.Destroy()
	}
}

// dirBytes is the on-disk footprint of a WAL directory.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue // retired by the checkpointer between list and stat
			}
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// passResult is what one pass over one workload measured.
type passResult struct {
	samples    samples
	attempted  int
	failed     int
	violations []string
	rounds     int
}

func (p *passResult) violate(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// runPass is one pass over one workload: its segments, then the checks.
func runPass(w *spec, e *env, traced bool, b budget) (*passResult, error) {
	p := &passResult{samples: samples{}}
	for i := 0; i < e.segments; i++ {
		if err := p.segment(w, e, traced, b); err != nil {
			return nil, err
		}
	}
	if err := p.finish(w, e, traced); err != nil {
		return nil, err
	}
	return p, nil
}

// segment sets the workload up once and runs timed rounds within the
// budget. An untraced segment yields end-to-end samples. A traced segment
// interleaves one untraced round with every two traced ones on twin
// instances, so the per-layer numbers and the tracing overhead come from
// the same stretch of time. On the durable workload the segment ends with
// close → OpenDisk → recovered == live.
func (p *passResult) segment(w *spec, e *env, traced bool, b budget) error {
	start := time.Now()
	plain, err := setUp(w, e, false)
	if err != nil {
		return err
	}
	defer plain.close()
	p.samples.add("setup_s", time.Since(start).Seconds())
	var twin *instance
	if traced {
		if twin, err = setUp(w, e, true); err != nil {
			return err
		}
		defer twin.close()
	}

	start = time.Now()
	for r := 0; !b.spent(r, start); r++ {
		in := plain
		if traced && r%3 != 0 {
			in = twin
		}
		m, rt, err := in.round()
		if err != nil {
			return err
		}
		p.rounds++
		p.attempted += in.jobs()
		p.failed += in.jobs() - m.Committed
		if m.Committed != in.jobs() {
			p.violate("round %d committed %d of %d jobs", p.rounds, m.Committed, in.jobs())
			continue
		}
		if rt == nil {
			p.recordPlain(in, m)
		} else {
			p.recordTraced(in, m, rt)
		}
	}
	if traced {
		// Every segment overwrites the file: the last one's last round stands.
		path := filepath.Join(e.outDir, "trace-"+w.name+".json")
		if err := twin.tr.write(path, w.name); err != nil {
			return fmt.Errorf("%s: trace file: %w", w.name, err)
		}
	}
	if plain.disk != nil {
		ms, bytes, why, err := recoverDisk(plain)
		if err != nil {
			return err
		}
		if why != "" {
			p.violate("%s", why)
		}
		for _, x := range ms {
			p.samples.add("recovery_ms", x)
		}
		p.samples.add("storage.disk.recovery_bytes", float64(bytes))
	}
	return nil
}

// finish closes a pass: the tracing overhead over all its segments, then
// the correctness gate.
func (p *passResult) finish(w *spec, e *env, traced bool) error {
	if traced {
		if u, t := p.samples.median("commit_tps"), p.samples.median("traced_commit_tps"); u > 0 {
			p.samples.add("trace.overhead_frac", 1-t/u)
		}
	}
	return p.verify(w, e)
}

// recordPlain takes the end-to-end values of one untraced round.
func (p *passResult) recordPlain(in *instance, m *sim.Metrics) {
	s := p.samples
	committed := float64(m.Committed)
	s.add("commit_tps", committed/m.Elapsed.Seconds())
	s.add("tx_p50_us", m.TxLatencyNs.Percentile(50)/1e3)
	s.add("tx_p99_us", m.TxLatencyNs.Percentile(99)/1e3)
	s.add("abort_ratio", float64(m.Aborts)/float64(m.Committed+m.Aborts))
	s.add("allocs_per_tx", m.AllocsPerTx)
	s.add("alloc_bytes_per_tx", float64(m.AllocBytes)/committed)
	if in.disk != nil {
		s.add("wal_bytes_per_user_byte", float64(m.WALBytes)/float64(in.userBytes))
		s.add("fsyncs_per_commit", float64(m.Fsyncs)/committed)
		if n, err := dirBytes(in.disk.Dir()); err == nil {
			s.add("wal_footprint_kb", float64(n)/1024)
		} else {
			p.violate("wal footprint: %v", err)
		}
	}
}

func histSum(h *report.Histogram) float64 { return float64(h.N()) * h.Mean() }

// recordTraced takes the per-layer values of one traced round: sim's own
// stage histograms, the decorators' span sums, and the layers' counters.
func (p *passResult) recordTraced(in *instance, m *sim.Metrics, rt *roundTrace) {
	s := p.samples
	committed := float64(m.Committed)
	s.add("traced_commit_tps", committed/m.Elapsed.Seconds())

	try := &rt.stats[layerOnline][opTry]
	requests := m.SchedNs.N() + m.WaitNs.N()
	s.add("sim.sched_us_mean", m.SchedNs.Mean()/1e3)
	s.add("sim.sched_us_p99", m.SchedNs.Percentile(99)/1e3)
	s.add("sim.hop_us_mean", (m.SchedNs.Mean()-try.meanPerReq())/1e3)
	s.add("sim.requests_per_tx", float64(requests)/committed)
	s.add("sim.wait_us_mean", m.WaitNs.Mean()/1e3)
	s.add("sim.wait_us_p99", m.WaitNs.Percentile(99)/1e3)
	s.add("sim.parked_frac", float64(m.WaitNs.N())/float64(requests))
	s.add("sim.deadlock_breaks_per_ktx", 1e3*float64(m.DeadlockBreaks)/committed)
	s.add("sim.commit_group_size", m.GroupSize())

	// The parts against the whole: every stage sum as a share of the summed
	// transaction latency. Commit work can overlap the next transaction (the
	// central engine commits on the scheduler goroutine, a commit group's
	// followers return at once), so the remainder may dip below zero.
	whole := histSum(&m.TxLatencyNs)
	unaccounted := 1.0
	for _, stage := range [...]struct {
		name string
		ns   float64
	}{
		{"sim.share_sched", histSum(&m.SchedNs)},
		{"sim.share_wait", histSum(&m.WaitNs)},
		{"sim.share_exec", histSum(&m.ExecNs)},
		{"sim.share_commit", rt.stats[layerOnline][opCommit].sumNs + rt.stats[layerStorage][opCommit].sumNs +
			rt.stats[layerDisk][opGroupSync].sumNs},
	} {
		s.add(stage.name, stage.ns/whole)
		unaccounted -= stage.ns / whole
	}
	s.add("sim.unaccounted_frac", unaccounted)

	s.add("online.try_ns_mean", try.meanPerReq())
	s.add("online.try_ns_p99", try.durs.Percentile(99))
	s.add("online.commit_ns_mean", rt.stats[layerOnline][opCommit].meanPerReq())
	s.add("online.abort_ns_mean", rt.stats[layerOnline][opAbort].meanPerReq())
	s.add("online.victim_ns_mean", rt.stats[layerOnline][opVictim].meanPerReq())
	dispatchers := 1 // the central scheduler goroutine
	if cs, ok := in.cfg.Sched.(interface{ NumShards() int }); ok {
		dispatchers = cs.NumShards()
	}
	s.add("online.busy_frac", rt.layerSum(layerOnline)/(float64(m.Elapsed)*float64(dispatchers)))
	var decided float64
	for i := range in.tr.decisions {
		decided += float64(in.tr.decisions[i].Load())
	}
	for i, name := range [3]string{"online.grant_frac", "online.delay_frac", "online.abort_frac"} {
		s.add(name, float64(in.tr.decisions[i].Load())/decided)
	}

	if in.kv != nil || in.disk != nil {
		apply := &rt.stats[layerStorage][opApply]
		rollback := &rt.stats[layerStorage][opRollback]
		s.add("storage.apply_ns_mean", apply.meanPerReq())
		s.add("storage.apply_ns_p99", apply.durs.Percentile(99))
		s.add("storage.commit_ns_mean", rt.stats[layerStorage][opCommit].meanPerReq())
		s.add("storage.rollback_ns_mean", rollback.meanPerReq())
		s.add("storage.rollbacks_per_ktx", 1e3*float64(rollback.calls)/committed)
	}
	if in.kv != nil {
		st := in.kv.Stats()
		s.add("storage.kv.bytes_written_per_tx", float64(st.BytesWritten)/committed)
		s.add("storage.kv.versions_gced_per_tx", float64(st.VersionsGCed)/committed)
		s.add("storage.kv.snapshot_reads_per_tx", float64(st.SnapshotReads)/committed)
	}
	if in.disk != nil {
		sync := &rt.stats[layerDisk][opGroupSync]
		s.add("storage.disk.group_sync_ns_mean", sync.meanPerReq())
		s.add("storage.disk.group_sync_ns_p99", sync.durs.Percentile(99))
		s.add("storage.disk.fsyncs", float64(m.Fsyncs))
		s.add("storage.disk.wal_bytes", float64(m.WALBytes))
		s.add("storage.disk.checkpoints", float64(m.Checkpoints))
		s.add("storage.disk.checkpoint_failures", float64(m.CheckpointFailures))
		s.add("storage.disk.segments_retired", float64(m.SegmentsRetired))
	}
}

// recoverDisk closes a durable instance's store, then reopens the directory
// recoveryReps times and compares each recovered state with the live
// committed one (a clean reopening leaves the directory as it found it, so
// every repetition replays the same bytes). It returns the time of each
// OpenDisk → state available, the bytes a recovery replayed, and what it
// found wrong ("" = nothing).
func recoverDisk(in *instance) (ms []float64, replayed int64, why string, err error) {
	live := in.disk.State()
	if err := in.disk.Close(); err != nil {
		return nil, 0, "", fmt.Errorf("%s: close: %w", in.w.name, err)
	}
	for i := 0; i < recoveryReps; i++ {
		start := time.Now()
		re, err := storage.OpenDisk(storage.Config{Dir: in.disk.Dir(), FS: modelDevice{}})
		if err != nil {
			return nil, 0, "", fmt.Errorf("%s: recovery: %w", in.w.name, err)
		}
		recovered := re.State()
		ms = append(ms, float64(time.Since(start))/1e6)
		ds := re.DurabilityStats()
		if err := re.Close(); err != nil {
			return nil, 0, "", fmt.Errorf("%s: close recovered store: %w", in.w.name, err)
		}
		switch {
		case !recovered.Equal(live):
			why = "recovered state differs from the live committed state"
		case ds.WALTruncated != 0:
			why = "clean close recovered a truncated log"
		}
		replayed = ds.RecoveryBytes
	}
	return ms, replayed, why, nil
}

// verify is the correctness gate: untimed rounds of e.verifyJobs jobs, each
// on a fresh instance, checked against the workload's oracle. Every
// workload runs one round and tolerates no violation, except under
// oracleCSRKnownBug.
func (p *passResult) verify(w *spec, e *env) error {
	rounds, budget := 1, 0
	if w.oracle == oracleCSRKnownBug {
		rounds, budget = knownBugRounds, knownBugBudget
	}
	bad := 0
	for r := 0; r < rounds; r++ {
		why, err := p.verifyRound(w, e)
		if err != nil {
			return err
		}
		if why == "" {
			continue
		}
		bad++
		if budget > 0 {
			fmt.Printf("FINDING %s: verification round %d: %s\n", w.name, r, why)
		}
		if bad > budget {
			p.failed += e.verifyJobs
			p.violate("verification round %d: %s", r, why)
		}
	}
	if w.oracle != oracleReplay {
		p.samples.add("verify.non_csr_rounds", float64(bad))
	}
	return nil
}

// verifyRound runs one verification round and returns what it found wrong
// with the outputs ("" = nothing).
func (p *passResult) verifyRound(w *spec, e *env) (string, error) {
	in, err := build(w, e, e.verifyJobs, false)
	if err != nil {
		return "", err
	}
	defer in.close()
	m, _, err := in.round()
	if err != nil {
		return "", err
	}
	sys := in.cfg.System
	p.attempted += e.verifyJobs
	if m.Committed != e.verifyJobs {
		return fmt.Sprintf("committed %d of %d jobs", m.Committed, e.verifyJobs), nil
	}
	if w.oracle != oracleReplay {
		ok, _, err := conflict.Serializable(sys, m.Output)
		if err != nil {
			return "", fmt.Errorf("%s: verify: %w", w.name, err)
		}
		if !ok {
			return "committed schedule is not conflict-serializable", nil
		}
		return "", nil
	}
	// Output holds the writer set only when read-only transactions were
	// served from snapshots; all-Read, they cannot move the state.
	st, err := core.ExecPrefix(sys, m.Output, sys.InitialStates()[0])
	if err != nil {
		return "", fmt.Errorf("%s: verify replay: %w", w.name, err)
	}
	if !in.cfg.Backend.State().Equal(st.Global) {
		return "backend state differs from the replay of the committed schedule", nil
	}
	if in.disk != nil {
		_, _, why, err := recoverDisk(in)
		return why, err
	}
	return "", nil
}
