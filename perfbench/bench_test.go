package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the benchmark's
// own tables in step: its workloads run by the code with the same
// reasons, the same metrics with the same units and directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) < 2 {
		t.Fatalf("%d workloads in BENCHMARK.json, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		i := slices.IndexFunc(workloads, func(d workloadDef) bool { return d.name == w.Name })
		if i < 0 || workloads[i].why != w.Why {
			t.Errorf("workload %q (%q) is not run by the code with that reason", w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, d)
		}
		if perLayer[i].moves == "" {
			t.Errorf("%s names no end-to-end metric it moves", m.Name)
		}
	}
}

// tinyWorkloads are the workloads at sizes that run in seconds.
func tinyWorkloads() []workloadDef {
	lock := lockOpenRing1k
	lock.nodes, lock.rate, lock.clients = 16, 400, 4
	lock.warm, lock.closedWarm, lock.rounds, lock.setupProbes = 100*time.Millisecond, 50*time.Millisecond, 2, 1
	lattice := simSpec{rows: 24, cols: 24, movers: 0.05, speed: 0.3, horizon: 40 * time.Millisecond, minReps: 2}
	tiny := slices.Clone(workloads)
	tiny[0].run = func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
		return runLock(lock, seed, budget, traced)
	}
	tiny[1].run = func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
		return runSim(lattice, seed, budget, traced)
	}
	return tiny
}

// TestTinyWorkloadsPrintEveryMetric runs every workload at a tiny size,
// plain and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that the report
// line carries every end-to-end figure.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live clusters and simulations")
	}
	bf := readBenchmarkFile(t)
	reported := map[string]bool{}
	for _, wl := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			out, err := wl.run(7, 2*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			res, rep := render(wl, 7, 2, traced, out)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d gate=%v",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, out.gate)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, ok := rep["tracing_overhead"]; !ok {
					t.Errorf("%s: traced run reports no tracing overhead", wl.name)
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl.name, traced, name, got, ok, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.name, name, got.Value)
				}
			}
			for name := range rep["end_to_end"].(map[string]metricValue) {
				reported[name] = true
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Errorf("%s: report does not encode: %v", wl.name, err)
			}
		}
	}
	for _, m := range append(slices.Clone(endToEnd), reportOnly...) {
		if !reported[m.name] {
			t.Errorf("no workload reports %s", m.name)
		}
	}
}

// TestRunRejectsBadArguments checks the command-line surface.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wSim, "--trace", "2"},
		{"--workload", wSim, "--seconds", "0"},
	} {
		var out, errs nopWriter
		if code := run(args, &out, &errs); code == 0 {
			t.Errorf("run(%v) = 0, want an error", args)
		}
		if out.n != 0 {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

type nopWriter struct{ n int }

func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
