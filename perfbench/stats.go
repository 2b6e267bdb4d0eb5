package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least a q share of the samples at or below it.
// It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// supportLadder is the percentile ladder a timing's tail is reported on.
var supportLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// minSupport is how many samples must lie beyond a reported percentile.
const minSupport = 10

// supportedPercentile picks the highest percentile of the ladder that has
// at least minSupport samples beyond it, and returns it with its value.
// ok is false when even the median lacks that support.
func supportedPercentile(sorted []float64) (q, v float64, ok bool) {
	n := float64(len(sorted))
	for _, p := range supportLadder {
		if (1-p)*n+1e-9 < minSupport {
			break
		}
		q, ok = p, true
	}
	if !ok {
		return 0, 0, false
	}
	return q, quantile(sorted, q), true
}

// timing is a latency distribution as the report prints it.
type timing struct {
	Count     int     `json:"count"`
	P50       float64 `json:"p50"`
	P90       float64 `json:"p90"`
	P99       float64 `json:"p99"`
	TailQ     float64 `json:"tail_q,omitempty"`
	Tail      float64 `json:"tail,omitempty"`
	Unit      string  `json:"unit"`
	Supported bool    `json:"p99_supported"`
}

// summarize sorts samples in place and reports them in unit.
func summarize(samples []float64, unit string) timing {
	slices.Sort(samples)
	t := timing{
		Count: len(samples),
		P50:   quantile(samples, 0.50),
		P90:   quantile(samples, 0.90),
		P99:   quantile(samples, 0.99),
		Unit:  unit,
	}
	t.TailQ, t.Tail, _ = supportedPercentile(samples)
	t.Supported = t.TailQ >= 0.99
	return t
}

// durationsIn converts durations to float samples in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
