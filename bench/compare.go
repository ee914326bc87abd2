package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "optcc-bench/v2" {
		return nil, fmt.Errorf("%s: schema %q, want optcc-bench/v2", path, r.Schema)
	}
	return &r, nil
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// loadSide loads one side of a comparison: one result file, or several
// separated by commas — runs of one commit, alternated with the other
// side's so that both sides see the same stretches of the box. Several
// runs merge into one result: every value is the median over the runs of
// the runs' medians, with the quartiles over the runs as its spread, and a
// workload is correct only if it was correct in every run.
func loadSide(paths string) (*result, error) {
	var runs []*result
	for _, path := range strings.Split(paths, ",") {
		r, err := loadResult(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	merged := *runs[0]
	merged.Workloads = nil
	for _, w := range runs[0].Workloads {
		e2e, per := samples{}, samples{}
		w.Correct, w.Attempted, w.Failed, w.Violations = true, 0, 0, nil
		for _, r := range runs {
			rw := r.workload(w.Name)
			if rw == nil {
				return nil, fmt.Errorf("%s: workload %s is not in every run", paths, w.Name)
			}
			w.Correct = w.Correct && rw.Correct
			w.Attempted += rw.Attempted
			w.Failed += rw.Failed
			w.Violations = append(w.Violations, rw.Violations...)
			for name, v := range rw.EndToEnd {
				e2e.add(name, v.Value)
			}
			for name, v := range rw.PerLayer {
				per.add(name, v.Value)
			}
		}
		w.EndToEnd, w.PerLayer = e2e.values(endToEnd), per.values(perLayer)
		merged.Workloads = append(merged.Workloads, w)
	}
	return &merged, nil
}

// gate is one bound compare enforces: the candidate's median may be worse
// than the baseline's by at most abs + rel × baseline.
type gate struct {
	name     string
	better   string
	abs, rel float64
	perLayer bool // read from per_layer, and skipped where the baseline lacks it
}

// gates are the end-to-end metrics with the bounds of BENCHMARK.json, then
// the median latency (demoted for unsteadiness; over several runs a side it
// is steady enough to gate) and the guards the issue fixed on metrics
// BENCHMARK.json cannot bound (absolute bounds, exact zeros, or defined on
// the durable workload only):
// wasted attempts, the 0-alloc hot path, WAL amplification, flush count,
// log footprint and the bytes a recovery replays (recovery_ms itself, a few
// milliseconds of file operations, differs by a third between two runs of
// one commit).
func gates() []gate {
	var gs []gate
	for _, d := range endToEnd {
		gs = append(gs, gate{name: d.name, better: d.better, rel: d.bound})
	}
	return append(gs,
		gate{name: "tx_p50_us", rel: 0.25, perLayer: true},
		gate{name: "abort_ratio", abs: 0.02, perLayer: true},
		gate{name: "allocs_per_tx", abs: 0.5, rel: 0.10, perLayer: true},
		gate{name: "alloc_bytes_per_tx", abs: 16, rel: 0.10, perLayer: true},
		gate{name: "wal_bytes_per_user_byte", rel: 0.05, perLayer: true},
		gate{name: "fsyncs_per_commit", rel: 0.05, perLayer: true},
		gate{name: "wal_footprint_kb", rel: 0.25, perLayer: true},
		gate{name: "storage.disk.recovery_bytes", rel: 0.25, perLayer: true},
	)
}

// compareMain is the regression gate: per workload and gated metric it
// prints both sides' medians, how much worse the candidate is and how much it may
// be, and returns non-zero when any metric is worse beyond its bound or
// the candidate's outputs were not correct. A metric within its bound
// whose quartile spread exceeds the bound on either side is unresolved,
// not unchanged.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASELINE.json[,BASELINE2.json…] CANDIDATE.json[,CANDIDATE2.json…]")
		return 2
	}
	var loaded [2]*result
	for i, paths := range args {
		r, err := loadSide(paths)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		loaded[i] = r
	}
	return compareResults(os.Stdout, loaded[0], loaded[1])
}

func compareResults(out io.Writer, base, cand *result) int {
	failed := false
	fmt.Fprintf(out, "%-22s %-24s %14s %14s %12s %12s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "may be", "verdict")
	for _, bw := range base.Workloads {
		cw := cand.workload(bw.Name)
		if cw == nil {
			fmt.Fprintf(out, "%-22s missing from the candidate\n", bw.Name)
			failed = true
			continue
		}
		if !cw.Correct || cw.Failed > 0 {
			fmt.Fprintf(out, "%-22s candidate not correct: %d of %d failed %v\n", bw.Name, cw.Failed, cw.Attempted, cw.Violations)
			failed = true
		}
		for _, g := range gates() {
			bvals, cvals := bw.EndToEnd, cw.EndToEnd
			if g.perLayer {
				bvals, cvals = bw.PerLayer, cw.PerLayer
			}
			b, okB := bvals[g.name]
			c, okC := cvals[g.name]
			if g.perLayer && !okB {
				continue
			}
			if !okB || !okC || (!g.perLayer && b.Value == 0) {
				fmt.Fprintf(out, "%-22s %-24s missing\n", bw.Name, g.name)
				failed = true
				continue
			}
			worse := c.Value - b.Value
			if g.better == "higher" {
				worse = -worse
			}
			limit := g.abs + g.rel*b.Value
			verdict := "ok"
			switch {
			case worse > limit:
				verdict = "REGRESSED"
				failed = true
			case b.Q3-b.Q1 > limit || c.Q3-c.Q1 > limit:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-22s %-24s %14.4f %14.4f %+12.4f %12.4f  %s\n",
				bw.Name, g.name, b.Value, c.Value, worse, limit, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
