package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// TestSupportedPercentile pins the rule: the highest percentile of the
// ladder with at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{19, 0, false},     // 9.5 samples beyond the median
		{20, 0.5, true},    // exactly 10 beyond the median
		{99, 0.5, true},    // 9.9 beyond p90
		{100, 0.9, true},   // 10 beyond p90
		{999, 0.9, true},   // 9.99 beyond p99
		{1000, 0.99, true}, // 10 beyond p99
		{10000, 0.999, true},
		{1000000, 0.99999, true},
	} {
		q, v, ok := supportedPercentile(seq(c.n))
		if ok != c.ok || q != c.wantQ {
			t.Errorf("n=%d: got (q=%v, ok=%v), want (q=%v, ok=%v)", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if ok && v != quantile(seq(c.n), q) {
			t.Errorf("n=%d: value %v is not the q=%v quantile", c.n, v, q)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := seq(1000)
	got := summarize(s, "ms")
	if got.Count != 1000 || got.P50 != 500 || got.P99 != 990 || got.TailQ != 0.99 || !got.Supported {
		t.Errorf("summarize(1..1000) = %+v", got)
	}
	small := summarize(seq(50), "ms")
	if small.Supported || small.TailQ != 0.5 {
		t.Errorf("summarize(1..50) = %+v; p99 must be unsupported", small)
	}
}
