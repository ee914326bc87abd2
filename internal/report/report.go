// Package report provides the small output layer shared by cmd/ccbench,
// the simulator and the examples: aligned ASCII tables, streaming
// statistics (Welford mean/variance) and fixed-capacity histograms with
// percentile queries.
package report

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Stats accumulates streaming mean and variance (Welford's algorithm) plus
// min and max.
type Stats struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records an observation.
func (s *Stats) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Stats) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Stats) Mean() float64 { return s.mean }

// Var returns the sample variance (0 when fewer than 2 observations).
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stats) Max() float64 { return s.max }

// String summarizes the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Histogram stores raw observations and answers percentile queries
// exactly. It is meant for simulation-scale data (≤ millions of points).
//
// An observation may be counted without a value (Skip): the simulator times
// its per-step stages on a sample of transactions and counts the rest. N
// counts every observation; Mean and Percentile read the timed values only,
// so with an unbiased sample N × Mean estimates the sum over all of them.
type Histogram struct {
	xs      []float64
	skipped int
	sorted  bool
}

// Add records an observation.
//
//optcc:hotpath
func (h *Histogram) Add(x float64) {
	//cclint:ignore hotpath presized by Grow; overflow beyond the reservation falls back to amortized growth by design
	h.xs = append(h.xs, x)
	h.sorted = false
}

// Skip records an observation that was counted but not timed.
//
//optcc:hotpath
func (h *Histogram) Skip() { h.skipped++ }

// Grow ensures capacity for at least n further timed observations without
// reallocating. The simulator presizes its per-request histograms with the
// run's expected sample count so steady-state Add calls never touch the
// allocator (the zero-allocation hot-path invariant, DESIGN.md "Memory
// discipline"); a run that overflows the reservation — restarts add extra
// requests — just falls back to amortized append growth.
func (h *Histogram) Grow(n int) {
	if n <= 0 || cap(h.xs)-len(h.xs) >= n {
		return
	}
	xs := make([]float64, len(h.xs), len(h.xs)+n)
	copy(xs, h.xs)
	h.xs = xs
}

// Merge adds every observation of o, timed or not, to h. The simulator's
// user goroutines record into private histograms and merge them once they
// have joined, so recording a sample takes no lock.
func (h *Histogram) Merge(o *Histogram) {
	h.skipped += o.skipped
	if len(o.xs) > 0 {
		h.xs = append(h.xs, o.xs...)
		h.sorted = false
	}
}

// N returns the number of observations, timed or not.
func (h *Histogram) N() int { return len(h.xs) + h.skipped }

// Timed returns the number of observations that carry a value.
func (h *Histogram) Timed() int { return len(h.xs) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the timed values
// using nearest-rank; it returns 0 when none is timed.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.xs) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.xs)
		h.sorted = true
	}
	if p <= 0 {
		return h.xs[0]
	}
	if p >= 100 {
		return h.xs[len(h.xs)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.xs))))
	if rank < 1 {
		rank = 1
	}
	return h.xs[rank-1]
}

// Mean returns the mean of the timed values (0 when none is timed).
func (h *Histogram) Mean() float64 {
	if len(h.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range h.xs {
		sum += x
	}
	return sum / float64(len(h.xs))
}

// Summary renders the count, the timed count, and the timed values' mean
// and standard latency percentiles.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d timed=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		h.N(), h.Timed(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Percentile(100))
}

// Ratio formats a/b as both a fraction and a percentage, guarding b = 0.
func Ratio(a, b int) string {
	if b == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.1f%%)", a, b, 100*float64(a)/float64(b))
}

// AllocMeter measures the allocator pressure of a region of code: heap
// objects and bytes allocated, and garbage-collection cycles completed,
// between Start and Delta, from the
// runtime/metrics allocation counters (no stop-the-world, unlike
// runtime.ReadMemStats — the simulator meters every run, including
// sub-millisecond ones, so the read must be nearly free). The counters are
// process-global, so concurrent activity outside the measured region
// pollutes the reading — treat it as a trend meter (the simulator's
// AllocBytes/AllocsPerTx metrics, ccbench -allocstats), not a proof; the
// proof lives in the AllocsPerOp ceilings of TestHotPathAllocCeilings.
type AllocMeter struct {
	objects, bytes, cycles uint64
}

func readAllocCounters() (objects, bytes, cycles uint64) {
	samples := [3]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples[:])
	return samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64()
}

// Start snapshots the allocator counters.
func (a *AllocMeter) Start() {
	a.objects, a.bytes, a.cycles = readAllocCounters()
}

// Delta returns heap objects and bytes allocated and garbage-collection
// cycles completed (forced ones, runtime.GC, included) since Start, all
// three from one read.
func (a *AllocMeter) Delta() (allocs, bytes, gcCycles int64) {
	objects, byteCount, cycles := readAllocCounters()
	return int64(objects - a.objects), int64(byteCount - a.bytes), int64(cycles - a.cycles)
}
