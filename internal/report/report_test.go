package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 22.5)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22.500") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestStats(t *testing.T) {
	var s Stats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("n = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-9 {
		t.Errorf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty string")
	}
	var empty Stats
	if empty.Var() != 0 || empty.Mean() != 0 {
		t.Error("empty stats nonzero")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Errorf("n = %d", h.N())
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(95); got != 95 {
		t.Errorf("p95 = %v", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Summary() == "" {
		t.Error("empty summary")
	}
	var empty Histogram
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram nonzero")
	}
}

func TestHistogramInterleavedAddQuery(t *testing.T) {
	var h Histogram
	h.Add(3)
	_ = h.Percentile(50)
	h.Add(1) // must re-sort
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 after re-add = %v", got)
	}
}

func TestHistogramSkipAndMerge(t *testing.T) {
	var a, b Histogram
	a.Add(10)
	a.Skip()
	a.Skip()
	b.Add(30)
	b.Skip()
	if a.N() != 3 || a.Timed() != 1 {
		t.Errorf("a: N = %d, Timed = %d, want 3, 1", a.N(), a.Timed())
	}
	a.Merge(&b)
	if a.N() != 5 || a.Timed() != 2 {
		t.Errorf("merged: N = %d, Timed = %d, want 5, 2", a.N(), a.Timed())
	}
	// Mean and Percentile read the timed values only; N × Mean is the
	// estimated sum over all five observations.
	if a.Mean() != 20 {
		t.Errorf("mean = %v, want 20", a.Mean())
	}
	if a.Percentile(0) != 10 || a.Percentile(100) != 30 || a.Percentile(50) != 10 {
		t.Errorf("p0/p50/p100 = %v/%v/%v, want 10/10/30", a.Percentile(0), a.Percentile(50), a.Percentile(100))
	}
	if s := a.Summary(); !strings.Contains(s, "n=5 timed=2 ") {
		t.Errorf("summary %q lacks the count and the timed count", s)
	}
}

func TestHistogramAllSkipped(t *testing.T) {
	var h Histogram
	for range 4 {
		h.Skip()
	}
	if h.N() != 4 || h.Timed() != 0 {
		t.Errorf("N = %d, Timed = %d, want 4, 0", h.N(), h.Timed())
	}
	if h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Errorf("mean/p99 = %v/%v, want 0/0", h.Mean(), h.Percentile(99))
	}
	if s := h.Summary(); !strings.HasPrefix(s, "n=4 timed=0 mean=0.000") {
		t.Errorf("summary = %q", s)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != "1/4 (25.0%)" {
		t.Errorf("ratio = %q", Ratio(1, 4))
	}
	if Ratio(0, 0) != "0/0" {
		t.Error("zero denominator")
	}
}
