package main

import "sort"

// metricDef names one metric of BENCHMARK.json. The tables below are the
// program's copy of that file's end_to_end and per_layer lists; the smoke
// test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the baseline median
}

// endToEnd is what a user of the engine sees, measured with tracing off:
// every value is the median over the timed rounds of the per-round value.
var endToEnd = []metricDef{
	{"commit_tps", "1/s", "higher", 0.25},
	{"tx_p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced pass and the probes report. A metric a
// workload has no layer for (storage.* without a storage backend) is
// absent from the result file and reads 0 on the driver's line.
var perLayer = []metricDef{
	// Demoted from end-to-end for unsteadiness, as the issue prescribes: on
	// the contended workloads the median latency sits between the
	// transactions that never restarted or parked and those that did, and
	// over ten runs of one commit it spread past the largest bound
	// BENCHMARK.json may fix. compare still gates it.
	{name: "tx_p50_us", unit: "us", better: "lower"},
	// Demoted from end-to-end: exact zeros on some workloads (abort_ratio,
	// failed_ratio), absolute rather than relative bounds, or only defined
	// on the durable workload — the benchmark contract wants end-to-end
	// metrics that are never 0 and bounded by a share of the median. The
	// issue's bounds on them are enforced by compare (gates, compare.go).
	{name: "abort_ratio", unit: "ratio", better: "lower"},
	{name: "failed_ratio", unit: "ratio", better: "lower"},
	{name: "allocs_per_tx", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_tx", unit: "B", better: "lower"},
	{name: "wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal_footprint_kb", unit: "KiB", better: "lower"},
	{name: "recovery_ms", unit: "ms", better: "lower"},

	{name: "sim.sched_us_mean", unit: "us", better: "lower"},
	{name: "sim.sched_us_p99", unit: "us", better: "lower"},
	{name: "sim.hop_us_mean", unit: "us", better: "lower"},
	{name: "sim.requests_per_tx", unit: "count", better: "lower"},
	{name: "sim.wait_us_mean", unit: "us", better: "lower"},
	{name: "sim.wait_us_p99", unit: "us", better: "lower"},
	{name: "sim.parked_frac", unit: "ratio", better: "lower"},
	{name: "sim.deadlock_breaks_per_ktx", unit: "count", better: "lower"},
	{name: "sim.share_sched", unit: "ratio", better: "lower"},
	{name: "sim.share_wait", unit: "ratio", better: "lower"},
	{name: "sim.share_exec", unit: "ratio", better: "higher"},
	{name: "sim.share_commit", unit: "ratio", better: "lower"},
	{name: "sim.unaccounted_frac", unit: "ratio", better: "lower"},
	{name: "sim.commit_group_size", unit: "count", better: "higher"},

	{name: "online.try_ns_mean", unit: "ns", better: "lower"},
	{name: "online.try_ns_p99", unit: "ns", better: "lower"},
	{name: "online.commit_ns_mean", unit: "ns", better: "lower"},
	{name: "online.abort_ns_mean", unit: "ns", better: "lower"},
	{name: "online.victim_ns_mean", unit: "ns", better: "lower"},
	{name: "online.busy_frac", unit: "ratio", better: "lower"},
	{name: "online.grant_frac", unit: "ratio", better: "higher"},
	{name: "online.delay_frac", unit: "ratio", better: "lower"},
	{name: "online.abort_frac", unit: "ratio", better: "lower"},

	{name: "lockmgr.acquire_fast_ns", unit: "ns", better: "lower"},
	{name: "lockmgr.release_all_ns", unit: "ns", better: "lower"},
	{name: "lockmgr.acquire_conflict_ns", unit: "ns", better: "lower"},
	{name: "lockmgr.acquire_batch_ns_per_req", unit: "ns", better: "lower"},
	{name: "lockmgr.detect_deadlock_ns", unit: "ns", better: "lower"},
	{name: "tstable.entry_lookup_ns", unit: "ns", better: "lower"},
	{name: "tstable.max_raise_ns", unit: "ns", better: "lower"},

	{name: "storage.apply_ns_mean", unit: "ns", better: "lower"},
	{name: "storage.apply_ns_p99", unit: "ns", better: "lower"},
	{name: "storage.commit_ns_mean", unit: "ns", better: "lower"},
	{name: "storage.rollback_ns_mean", unit: "ns", better: "lower"},
	{name: "storage.rollbacks_per_ktx", unit: "count", better: "lower"},
	{name: "storage.kv.bytes_written_per_tx", unit: "B", better: "lower"},
	{name: "storage.kv.versions_gced_per_tx", unit: "count", better: "higher"},
	{name: "storage.kv.snapshot_reads_per_tx", unit: "count", better: "higher"},
	{name: "storage.kv.apply_256_ns", unit: "ns", better: "lower"},
	{name: "storage.kv.apply_4k_ns", unit: "ns", better: "lower"},
	{name: "storage.kv.snapshot_read_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.group_sync_ns_mean", unit: "ns", better: "lower"},
	{name: "storage.disk.group_sync_ns_p99", unit: "ns", better: "lower"},
	{name: "storage.disk.append_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.fsyncs", unit: "count", better: "lower"},
	{name: "storage.disk.wal_bytes", unit: "B", better: "lower"},
	{name: "storage.disk.checkpoints", unit: "count", better: "higher"},
	{name: "storage.disk.checkpoint_failures", unit: "count", better: "lower"},
	{name: "storage.disk.segments_retired", unit: "count", better: "higher"},
	{name: "storage.disk.recovery_bytes", unit: "B", better: "lower"},

	{name: "verify.non_csr_rounds", unit: "count", better: "lower"},
	{name: "report.hist_add_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// samples collects the per-round values of every metric by name.
type samples map[string][]float64

func (s samples) add(name string, x float64) { s[name] = append(s[name], x) }

func (s samples) median(name string) float64 {
	_, q2, _ := quartiles(s[name])
	return q2
}

// quartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the driver's spread measure);
// fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// value is one reported metric: the median of its samples with the
// quartiles and the sample count. Better and Bound are set on end-to-end
// metrics so a result file can be compared without BENCHMARK.json.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// values aggregates the samples of the given metrics; metrics without a
// sample are left out.
func (s samples) values(defs []metricDef) map[string]value {
	out := map[string]value{}
	for _, d := range defs {
		xs := s[d.name]
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		out[d.name] = value{Value: q2, Unit: d.unit, Q1: q1, Q3: q3, N: len(xs), Better: d.better, Bound: d.bound}
	}
	return out
}
