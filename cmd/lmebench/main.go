// Command lmebench regenerates every experiment table of DESIGN.md §2 —
// the measured counterpart of the paper's Table 1 and of the theorems'
// predicted scaling — and prints them in the format recorded in
// EXPERIMENTS.md.
//
// Examples:
//
//	lmebench                        # all experiments at full quality
//	lmebench -exp e3,e6             # a subset
//	lmebench -quick                 # fast pass (the configuration unit tests use)
//	lmebench -quick -json           # machine-readable results for benchmark diffing
//	lmebench -replicas 5 -parallel 8 # 5 seeded runs per cell on 8 workers
//	lmebench -micro -json           # substrate microbenchmarks (BENCH_micro.json)
//	lmebench -scale -json           # large-n sweep on the sharded engine (lme/scale/v1)
//	lmebench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lme/internal/fleet"
	"lme/internal/harness"
	"lme/internal/microbench"
	"lme/internal/progress"
	"lme/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmebench:", err)
		os.Exit(1)
	}
}

// BenchSchema identifies the lmebench -json layout; bump on breaking
// changes. v2 adds replicas, cell_stats, parallel and wall-clock fields.
const BenchSchema = "lme/bench/v2"

// benchResult is one experiment's slice of the -json document: the table
// (rows carry the measured trajectories, e.g. E10's msg/meal column) plus
// the cost of producing it. The trace-loss counters are per-experiment
// deltas and appear only when events were actually lost.
type benchResult struct {
	harness.Table
	ElapsedMS       float64 `json:"elapsed_ms"`
	SchedEvents     uint64  `json:"sched_events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	RingOverwritten uint64  `json:"ring_overwritten,omitempty"`
	SinkDropped     uint64  `json:"sink_dropped,omitempty"`
}

// benchDoc is the lmebench -json document.
type benchDoc struct {
	Schema   string        `json:"schema"`
	Quality  string        `json:"quality"`
	Parallel int           `json:"parallel"`
	Replicas int           `json:"replicas"`
	Results  []benchResult `json:"results"`
}

func run() error {
	var (
		expFlag    = flag.String("exp", "", "comma-separated experiment IDs (e.g. e1,e3); empty = all")
		quick      = flag.Bool("quick", false, "reduced sweep sizes and horizons")
		jsonOut    = flag.Bool("json", false, "emit results as a single JSON document instead of text tables")
		parallel   = flag.Int("parallel", 0, "worker count for the fleet pool; 0 = all cores")
		replicas   = flag.Int("replicas", 1, "independent seeded runs per measurement cell")
		micro      = flag.Bool("micro", false, "run the substrate microbenchmarks instead of the experiments")
		scale      = flag.Bool("scale", false, "run the large-n scale sweep on the sharded engine instead of the experiments")
		scaleNs    = flag.String("scale-n", "1000,10000,100000", "comma-separated node counts for -scale")
		scaleHoriz = flag.Duration("scale-horizon", 150*time.Millisecond, "virtual-time span per -scale run")
		scaleSeed  = flag.Uint64("scale-seed", 1, "seed for -scale runs")
		scaleTiles = flag.Int("scale-tiles", 0, "tile grid side for -scale (0 = auto per n, 1 = single-heap reference)")
		scaleWork  = flag.Int("scale-workers", 0, "worker goroutines for -scale (0 = GOMAXPROCS)")
		scaleTel   = flag.Bool("scale-telemetry", true, "attach per-tile engine telemetry to -scale results (out-of-band; result_hash is unaffected)")
		check      = flag.Bool("check", false, "with -micro: compare against the committed baseline and fail on large regressions")
		baseline   = flag.String("baseline", "BENCH_micro.json", "baseline file for -micro -check")
		checkTol   = flag.Float64("check-tol", 2.0, "regression factor tolerated by -micro -check (ns/op may grow up to this multiple)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		progFlag   = flag.Bool("progress", false, "print a live heartbeat (jobs done, events/s, heap, trace loss) to stderr")
		progOut    = flag.String("progress-out", "", "write lme/progress/v1 heartbeat records as JSONL to this file")
		progEach   = flag.Duration("progress-every", 2*time.Second, "wall-clock interval between heartbeats")
	)
	flag.Parse()
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1 (got %d)", *replicas)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lmebench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lmebench: -memprofile:", err)
			}
		}()
	}

	if *micro {
		var base string
		if *check {
			base = *baseline
		}
		return runMicro(*jsonOut, base, *checkTol)
	}
	if *check {
		return fmt.Errorf("-check requires -micro")
	}
	if *scale {
		var ns []int
		for _, s := range strings.Split(*scaleNs, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 2 {
				return fmt.Errorf("-scale-n: bad node count %q", s)
			}
			ns = append(ns, n)
		}
		// Virtual time is in µs; the flag takes a wall-style duration for
		// readability (150ms → 150000 virtual µs).
		horizon := sim.Time(scaleHoriz.Microseconds())
		var logw io.Writer
		if !*jsonOut {
			logw = os.Stderr
		}
		out := io.Writer(os.Stdout)
		if !*jsonOut {
			out = io.Discard
		}
		return harness.RunScaleSweep(ns, *scaleSeed, horizon, *scaleTiles, *scaleWork, *scaleTel, out, logw)
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	quality := harness.Full
	qualityName := "full"
	if *quick {
		quality = harness.Quick
		qualityName = "quick"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	engine := harness.Engine{Workers: *parallel, Replicas: *replicas, Context: ctx}

	// The fleet heartbeat: a wall-clock ticker goroutine owns the
	// reporter (the sources it samples — events processed, trace loss,
	// the jobs counter — are all atomics, so worker goroutines never
	// touch the reporter itself).
	var stopProgress func() error
	if *progFlag || *progOut != "" {
		cfg := progress.Config{Interval: *progEach, Label: "bench"}
		if *progFlag {
			cfg.Human = os.Stderr
		}
		closeFile := func() error { return nil }
		if *progOut != "" {
			f, err := os.Create(*progOut)
			if err != nil {
				return err
			}
			w := bufio.NewWriter(f)
			cfg.JSONL = w
			closeFile = func() error {
				if err := w.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		}
		var jobsDone atomic.Int64
		engine.OnResult = func(fleet.Result) { jobsDone.Add(1) }
		rep := progress.New(cfg, progress.Sources{
			Events: harness.EventsProcessed,
			Loss:   harness.TraceLoss,
			Jobs:   func() (done, total int) { return int(jobsDone.Load()), 0 },
		})
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(*progEach)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rep.Tick()
				case <-done:
					return
				}
			}
		}()
		stopProgress = func() error {
			close(done)
			wg.Wait()
			rep.Final()
			err := rep.Err()
			if e := closeFile(); err == nil {
				err = e
			}
			return err
		}
		defer func() {
			if stopProgress != nil {
				if err := stopProgress(); err != nil {
					fmt.Fprintln(os.Stderr, "lmebench: warning: progress stream:", err)
				}
			}
		}()
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	doc := benchDoc{
		Schema: BenchSchema, Quality: qualityName,
		Parallel: workers, Replicas: *replicas,
		Results: []benchResult{},
	}
	ran := 0
	for _, exp := range harness.Experiments() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		eventsBefore := harness.EventsProcessed()
		overBefore, dropBefore := harness.TraceLoss()
		start := time.Now()
		tbl, err := engine.Run(exp, quality)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		elapsed := time.Since(start)
		events := harness.EventsProcessed() - eventsBefore
		overAfter, dropAfter := harness.TraceLoss()
		ran++
		if *jsonOut {
			res := benchResult{
				Table:           *tbl,
				ElapsedMS:       float64(elapsed.Microseconds()) / 1000,
				SchedEvents:     events,
				RingOverwritten: overAfter - overBefore,
				SinkDropped:     dropAfter - dropBefore,
			}
			if elapsed > 0 {
				res.EventsPerSec = float64(events) / elapsed.Seconds()
			}
			doc.Results = append(doc.Results, res)
			continue
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %v, %d events)\n\n", exp.ID, elapsed.Round(time.Millisecond), events)
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *expFlag)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

// MicroSchema identifies the lmebench -micro -json layout; bump on
// breaking changes.
const MicroSchema = "lme/microbench/v1"

// microResult is one microbenchmark's measurement, mirroring the columns
// `go test -bench` prints.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extras carries custom b.ReportMetric units — the scale sweeps
	// publish "events/s" (engine throughput) and "heapB/node" here.
	// Informational only: -check compares ns/op and allocs/op.
	Extras map[string]float64 `json:"extras,omitempty"`
}

// microDoc is the lmebench -micro -json document (the layout of
// BENCH_micro.json). ObservedVsDark is the EndToEndObserved/EndToEndDark
// ns/op ratio — the end-to-end price of full observability — present
// whenever both benchmarks ran.
type microDoc struct {
	Schema string `json:"schema"`
	// Machine stamps what the ns/op figures depend on.
	Machine        *microMachine `json:"machine,omitempty"`
	Results        []microResult `json:"results"`
	ObservedVsDark float64       `json:"observed_vs_dark,omitempty"`
	// TelemetryVsDark is TelemetryFold's interleaved-slab overhead ratio
	// (telemetry-on ns / telemetry-off ns over alternating 5ms slabs of
	// identical worlds) — the whole price of engine telemetry on the
	// sharded window loop. Unlike ObservedVsDark it is load-bearing:
	// -check fails when it exceeds telemetryOverheadBudget.
	TelemetryVsDark float64 `json:"telemetry_vs_dark,omitempty"`
	// CodecVsGob is the worse of WireEncode/WireEncodeGob and
	// WireDecode/WireDecodeGob ns/op — the hand-written wire codecs
	// against the retained gob oracle, both measured in this process.
	// Load-bearing under -check: the fast path must stay at or below
	// codecVsGobBudget of the oracle's cost, or it has stopped being a
	// fast path.
	CodecVsGob float64 `json:"codec_vs_gob,omitempty"`
}

// microMachine is the machine stamp of a microbenchmark run.
type microMachine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// cpuModel reads the processor's model name where the OS exposes it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// telemetryOverheadBudget caps TelemetryVsDark under -check: telemetry
// collection may cost at most 2% of the sharded window loop. The two
// benchmarks run identical worlds back to back in one process, so the
// ratio is far less noisy than cross-run ns/op comparisons.
const telemetryOverheadBudget = 1.02

// codecVsGobBudget caps CodecVsGob under -check: the binary codecs must
// run in at most half the gob oracle's ns/op on both directions. The
// pair runs back to back over identical message samples in one process,
// so the ratio is robust to machine speed.
const codecVsGobBudget = 0.5

// runMicro runs the substrate microbenchmarks of internal/microbench via
// testing.Benchmark — the same bodies `go test -bench` runs in
// internal/sim and internal/manet — and reports ns/op and allocs/op.
// When baseline names a committed BENCH_micro.json, the fresh numbers
// are compared against its results and large regressions fail the run.
func runMicro(jsonOut bool, baseline string, tol float64) error {
	doc := microDoc{
		Schema:  MicroSchema,
		Machine: &microMachine{CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Results: []microResult{},
	}
	if !jsonOut {
		fmt.Printf("machine: %s, GOMAXPROCS=%d, %s\n", doc.Machine.CPU, doc.Machine.GOMAXPROCS, doc.Machine.Go)
	}
	for _, bench := range microbench.All() {
		r := testing.Benchmark(bench.Fn)
		res := microResult{
			Name:        bench.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extras = make(map[string]float64, len(r.Extra))
			for unit, v := range r.Extra {
				res.Extras[unit] = v
			}
		}
		doc.Results = append(doc.Results, res)
		if !jsonOut {
			fmt.Printf("%-18s %12d ops %12.1f ns/op %8d B/op %6d allocs/op\n",
				res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
			if ev, ok := res.Extras["events/s"]; ok {
				fmt.Printf("%-18s %12.0f events/s %10.0f heapB/node\n",
					"", ev, res.Extras["heapB/node"])
			}
		}
	}
	var dark, observed, overhead float64
	var encC, encG, decC, decG float64
	for _, r := range doc.Results {
		switch r.Name {
		case "EndToEndDark":
			dark = r.NsPerOp
		case "EndToEndObserved":
			observed = r.NsPerOp
		case "TelemetryFold":
			overhead = r.Extras["overhead_x"]
		case "WireEncode":
			encC = r.NsPerOp
		case "WireEncodeGob":
			encG = r.NsPerOp
		case "WireDecode":
			decC = r.NsPerOp
		case "WireDecodeGob":
			decG = r.NsPerOp
		}
	}
	if dark > 0 && observed > 0 {
		doc.ObservedVsDark = observed / dark
		if !jsonOut {
			fmt.Printf("observed-vs-dark   %.2fx (dark %.1f ns/op, observed %.1f ns/op)\n",
				doc.ObservedVsDark, dark, observed)
		}
	}
	if overhead > 0 {
		doc.TelemetryVsDark = overhead
		if !jsonOut {
			fmt.Printf("telemetry-vs-dark  %.3fx (interleaved slabs, budget %.2fx)\n",
				doc.TelemetryVsDark, telemetryOverheadBudget)
		}
	}
	if encC > 0 && encG > 0 && decC > 0 && decG > 0 {
		doc.CodecVsGob = max(encC/encG, decC/decG)
		if !jsonOut {
			fmt.Printf("codec-vs-gob       %.3fx (encode %.3fx, decode %.3fx, budget %.2fx)\n",
				doc.CodecVsGob, encC/encG, decC/decG, codecVsGobBudget)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if baseline != "" {
		return checkMicro(doc, baseline, tol)
	}
	return nil
}

// checkMicro compares fresh microbenchmark numbers against the committed
// baseline's results array. ns/op may grow by the tolerance factor before
// the check fails — microbenchmarks on shared CI machines are noisy, so
// this is a smoke detector for order-of-magnitude regressions, not a
// tachometer. allocs/op is compared near-exactly (one alloc of slack,
// plus 2% for benchmarks whose baseline already allocates heavily —
// live-cluster round trips schedule goroutines and timers, so their
// counts wobble): allocation counts on the lean hot paths are
// deterministic, and a new allocation there is precisely what the
// encoding fast path exists to prevent.
func checkMicro(doc microDoc, baseline string, tol float64) error {
	raw, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	var base microDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("-check: parse %s: %w", baseline, err)
	}
	want := make(map[string]microResult, len(base.Results))
	for _, r := range base.Results {
		want[r.Name] = r
	}
	var regressions []string
	for _, r := range doc.Results {
		b, ok := want[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "check: %-18s no baseline (new benchmark), skipped\n", r.Name)
			continue
		}
		status := "ok"
		allocSlack := b.AllocsPerOp + 1
		if wobble := b.AllocsPerOp + b.AllocsPerOp/50; wobble > allocSlack {
			allocSlack = wobble
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*tol {
			status = fmt.Sprintf("REGRESSION: %.1f ns/op vs baseline %.1f (>%.1fx)", r.NsPerOp, b.NsPerOp, tol)
		} else if r.AllocsPerOp > allocSlack {
			status = fmt.Sprintf("REGRESSION: %d allocs/op vs baseline %d", r.AllocsPerOp, b.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "check: %-18s %s\n", r.Name, status)
		if status != "ok" {
			regressions = append(regressions, r.Name)
		}
	}
	if doc.TelemetryVsDark > 0 {
		status := "ok"
		if doc.TelemetryVsDark > telemetryOverheadBudget {
			status = fmt.Sprintf("REGRESSION: %.3fx vs the %.2fx budget", doc.TelemetryVsDark, telemetryOverheadBudget)
			regressions = append(regressions, "telemetry-vs-dark")
		}
		fmt.Fprintf(os.Stderr, "check: %-18s %s (%.3fx)\n", "telemetry-vs-dark", status, doc.TelemetryVsDark)
	}
	if doc.CodecVsGob > 0 {
		status := "ok"
		if doc.CodecVsGob > codecVsGobBudget {
			status = fmt.Sprintf("REGRESSION: %.3fx vs the %.2fx budget", doc.CodecVsGob, codecVsGobBudget)
			regressions = append(regressions, "codec-vs-gob")
		}
		fmt.Fprintf(os.Stderr, "check: %-18s %s (%.3fx)\n", "codec-vs-gob", status, doc.CodecVsGob)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("-check: %d benchmark(s) regressed vs %s: %s",
			len(regressions), baseline, strings.Join(regressions, ", "))
	}
	return nil
}
