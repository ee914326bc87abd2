package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optcc/internal/core"
	"optcc/internal/online"
	"optcc/internal/storage"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json and the program's tables
// together: the driver's workloads with their reasons, every metric with its
// unit, direction and bound.
func TestManifestMatchesProgram(t *testing.T) {
	m := loadManifest(t)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	var driven []spec
	for _, w := range specs {
		if w.driver {
			driven = append(driven, w)
		}
	}
	if len(m.Workloads) != len(driven) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d marked driver in the program", len(m.Workloads), len(driven))
	}
	for i, w := range m.Workloads {
		if w.Name != driven[i].name || w.Why != driven[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, driven[i].name, driven[i].why)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s %s: bound differs from the program's %v", kind, g.Name, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// small returns a copy of a workload with tiny rounds.
func small(w spec) *spec {
	w.roundJobs = 300
	return &w
}

func testEnv(t *testing.T) *env {
	return &env{seed: 7, users: multiprogramming, verifyJobs: 200, segments: 1, outDir: t.TempDir()}
}

// TestSmoke runs both passes of every workload on tiny rounds and asserts
// that the driver's line carries exactly the metrics BENCHMARK.json names,
// each with its unit, that every workload passes its correctness gate, and
// that every per-layer metric is measured (non-absent) on some workload.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	e := testEnv(t)
	probes, err := runProbes(e.freshDir("probe"))
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for i := range specs {
		w := small(specs[i])
		if testing.Short() && w.name == "durable-2pl-disk" {
			continue
		}
		for _, traced := range []bool{false, true} {
			line, vals, violations, err := onePass(e, w, traced, budget{rounds: 3}, probes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, line.Correct, line.Attempted, line.Failed, violations)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted=%v unit %q, want unit %q", w.name, traced, d.Name, ok, got.Unit, d.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.Name, got.Value)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, got.Value)
				}
			}
			for name := range vals {
				measured[name] = true
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer metric %s was measured on no workload", d.name)
		}
	}
}

// TestDecoratorsKeepTheCodePath is the parity test: the decorated scheduler
// and backend of every workload satisfy exactly the optional interfaces the
// bare ones do, and the fast paths those interfaces unlock still run under
// tracing.
func TestDecoratorsKeepTheCodePath(t *testing.T) {
	e := testEnv(t)
	for i := range specs {
		w := small(specs[i])
		if testing.Short() && w.name == "durable-2pl-disk" {
			continue
		}
		var metrics [2]struct {
			snapshotReads, fsyncs int64
			groupCommits          int
		}
		var instances [2]*instance
		for k, traced := range []bool{false, true} {
			in, err := build(w, e, w.roundJobs, traced)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			instances[k] = in
			m, _, err := in.round()
			if err != nil {
				t.Fatal(err)
			}
			metrics[k].snapshotReads, metrics[k].fsyncs, metrics[k].groupCommits = m.SnapshotReads, m.Fsyncs, m.GroupCommits
		}
		bare, traced := instances[0].cfg, instances[1].cfg
		for name, has := range map[string]func(any) bool{
			"online.ConcurrentScheduler": func(x any) bool { _, ok := x.(online.ConcurrentScheduler); return ok },
			"online.BatchTrier":          func(x any) bool { _, ok := x.(online.BatchTrier); return ok },
			"online.SnapshotSource":      func(x any) bool { _, ok := x.(online.SnapshotSource); return ok },
			"online.WaitsForProvider":    func(x any) bool { _, ok := x.(online.WaitsForProvider); return ok },
			"storage.SnapshotBackend":    func(x any) bool { _, ok := x.(storage.SnapshotBackend); return ok },
			"storage.DurableBackend":     func(x any) bool { _, ok := x.(storage.DurableBackend); return ok },
			"storage.GroupSyncer":        func(x any) bool { _, ok := x.(storage.GroupSyncer); return ok },
			"SyncCoalesces":              func(x any) bool { _, ok := x.(interface{ SyncCoalesces() bool }); return ok },
		} {
			if has(bare.Sched) != has(traced.Sched) {
				t.Errorf("%s: scheduler implements %s bare=%v traced=%v", w.name, name, has(bare.Sched), has(traced.Sched))
			}
			if has(bare.Backend) != has(traced.Backend) {
				t.Errorf("%s: backend implements %s bare=%v traced=%v", w.name, name, has(bare.Backend), has(traced.Backend))
			}
		}
		for k, mode := range []string{"untraced", "traced"} {
			switch w.name {
			case "readmostly-mv-kv":
				if metrics[k].snapshotReads == 0 {
					t.Errorf("%s %s: SnapshotReads = 0, the read-only fast path is off", w.name, mode)
				}
			case "durable-2pl-disk":
				if metrics[k].fsyncs == 0 || metrics[k].groupCommits == 0 {
					t.Errorf("%s %s: Fsyncs = %d GroupCommits = %d, the durable commit path is off", w.name, mode, metrics[k].fsyncs, metrics[k].groupCommits)
				}
			}
		}
	}
}

// grantAll is no concurrency control at all: on the contended mix its
// committed schedules are not conflict-serializable.
type grantAll struct{}

func (grantAll) Name() string                    { return "grant-all" }
func (grantAll) Begin(*core.System)              {}
func (grantAll) Try(core.StepID) online.Decision { return online.Grant }
func (grantAll) Commit(int)                      {}
func (grantAll) Abort(int)                       {}
func (grantAll) Victim([]int) (int, bool)        { return 0, false }
func (grantAll) Wounded() []int                  { return nil }

// TestCorrectnessGateFails shows the gate failing: a scheduler that grants
// everything fails the strict oracle on its one verification round, and
// the known-bug oracle once more rounds fail than its budget allows.
func TestCorrectnessGateFails(t *testing.T) {
	e := testEnv(t)
	e.verifyJobs = 400
	for _, tc := range []struct {
		oracle     oracle
		violations int
		nonCSR     float64
	}{
		{oracleCSR, 1, 1},
		{oracleCSRKnownBug, knownBugRounds - knownBugBudget, knownBugRounds},
	} {
		w := &spec{name: "grant-all", roundJobs: 400, oracle: tc.oracle, gen: hotspot,
			sched: func(int) online.Scheduler { return grantAll{} }}
		p := &passResult{samples: samples{}}
		if err := p.verify(w, e); err != nil {
			t.Fatal(err)
		}
		if len(p.violations) != tc.violations || p.failed == 0 {
			t.Errorf("oracle %v: %d violations, failed %d, want %d violations and failed > 0: %v", tc.oracle, len(p.violations), p.failed, tc.violations, p.violations)
		}
		if got := p.samples.median("verify.non_csr_rounds"); got != tc.nonCSR {
			t.Errorf("oracle %v: verify.non_csr_rounds = %v, want %v", tc.oracle, got, tc.nonCSR)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareGate(t *testing.T) {
	// mk is a one-workload result: every end-to-end metric at 100 except
	// commit_tps, and the guarded per-layer metrics as given.
	mk := func(tps, q1, q3 float64, layer map[string]float64) *result {
		vals := map[string]value{}
		for _, d := range endToEnd {
			vals[d.name] = value{Value: 100, Unit: d.unit, Q1: 99, Q3: 101, N: 24, Better: d.better, Bound: d.bound}
		}
		v := vals["commit_tps"]
		v.Value, v.Q1, v.Q3 = tps, q1, q3
		vals["commit_tps"] = v
		per := map[string]value{}
		for name, x := range layer {
			per[name] = value{Value: x, Q1: x, Q3: x, N: 24}
		}
		return &result{Schema: "optcc-bench/v2", Workloads: []workloadResult{{Name: "w", Correct: true, Attempted: 1, EndToEnd: vals, PerLayer: per}}}
	}
	guarded := map[string]float64{"abort_ratio": 0.20, "allocs_per_tx": 0, "alloc_bytes_per_tx": 1000,
		"fsyncs_per_commit": 0.9}
	with := func(name string, x float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range guarded {
			m[k] = v
		}
		m[name] = x
		return m
	}
	base := mk(1000, 990, 1010, guarded)
	for _, tc := range []struct {
		name, row string
		cand      *result
		code      int
		want      string
	}{
		{"same", "commit_tps", mk(1000, 990, 1010, guarded), 0, " ok"},
		{"within bound", "commit_tps", mk(950, 940, 960, guarded), 0, " ok"},
		{"beyond bound", "commit_tps", mk(500, 495, 505, guarded), 1, "REGRESSED"},
		{"better", "commit_tps", mk(2000, 1990, 2010, guarded), 0, " ok"},
		{"wide spread", "commit_tps", mk(990, 500, 1500, guarded), 0, "unresolved"},
		{"more aborts, within", "abort_ratio", mk(1000, 990, 1010, with("abort_ratio", 0.215)), 0, " ok"},
		{"more aborts", "abort_ratio", mk(1000, 990, 1010, with("abort_ratio", 0.23)), 1, "REGRESSED"},
		{"hot path allocates", "allocs_per_tx", mk(1000, 990, 1010, with("allocs_per_tx", 1)), 1, "REGRESSED"},
		{"more bytes", "alloc_bytes_per_tx", mk(1000, 990, 1010, with("alloc_bytes_per_tx", 1200)), 1, "REGRESSED"},
		{"more flushes", "fsyncs_per_commit", mk(1000, 990, 1010, with("fsyncs_per_commit", 1)), 1, "REGRESSED"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, base, tc.cand); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+tc.row+" ") {
				row = line
			}
		}
		if !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: %s row %q, want verdict %q", tc.name, tc.row, row, tc.want)
		}
	}
	failing := mk(1000, 990, 1010, guarded)
	failing.Workloads[0].Correct = false
	if code := compareResults(&bytes.Buffer{}, base, failing); code != 1 {
		t.Errorf("incorrect candidate: exit code %d, want 1", code)
	}
	// Several runs on a side merge into the median of their medians, and
	// one incorrect run makes the side incorrect.
	dir := t.TempDir()
	var paths []string
	for i, r := range []*result{mk(900, 890, 910, guarded), mk(1000, 990, 1010, guarded), failing} {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("run%d.json", i)))
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	side, err := loadSide(strings.Join(paths, ","))
	if err != nil {
		t.Fatal(err)
	}
	if v := side.Workloads[0].EndToEnd["commit_tps"]; v.Value != 1000 || v.N != 3 || side.Workloads[0].Correct {
		t.Errorf("merged side: commit_tps %+v correct %v, want the median 1000 of 3 runs and not correct", v, side.Workloads[0].Correct)
	}
	// A guard the baseline has no value for (wal_* off the durable
	// workload) is skipped; one only the candidate lacks fails.
	if code := compareResults(&bytes.Buffer{}, base, mk(1000, 990, 1010, nil)); code != 1 {
		t.Errorf("candidate without guarded metrics: exit code %d, want 1", code)
	}
}
