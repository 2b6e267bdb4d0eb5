// Command perfbench is the repository's benchmark. It runs one workload of
// the live lock service or of the simulator through their public entry
// points, checks that the run was correct, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run is made twice, plain and with timing decorators wrapped around
// the Transport and Protocol seams, and the result carries the per-layer
// metrics of the traced run; the tracing overhead (traced minus plain
// end-to-end figures) goes on the report line.
//
// The line before the result is a report: the machine stamp, every
// end-to-end figure under its name and unit (the report-only ones
// included), each timing's median and best-supported percentile with its
// sample count, and the correctness gates.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// workloadDef is one named workload.
type workloadDef struct {
	name, why string
	run       func(seed uint64, budget time.Duration, traced bool) (outcome, error)
}

// workloads lists every workload the command runs.
var workloads = []workloadDef{
	{
		name: wOpen,
		why:  "latency and wire cost under a fixed 5k/s Poisson load well under the knee, then the grant rate of 16 back-to-back clients, on one UDP cluster",
		run: func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
			return runLock(lockOpenRing1k, seed, budget, traced)
		},
	},
	{
		name: wSim,
		why:  "the simulator alone: event heap, shard windows, mobile links, Alg 1 handlers, trace bus and span fold",
		run: func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
			return runSim(simMobileLattice10k, seed, budget, traced)
		},
	},
}

// outcome is what a workload run produced.
type outcome struct {
	// gate lists every failed correctness check; a run with any is
	// incorrect and reports no numbers.
	gate      []string
	attempted int
	failed    int
	// e2e holds the end-to-end figures (report-only ones included);
	// layers the per-layer ones of a traced run.
	e2e    map[string]float64
	layers map[string]float64
	// report carries everything else the report line prints.
	report map[string]any
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), "|"))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	wl := workloads[i]
	out, err := wl.run(*seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	res, rep := render(wl, *seed, *seconds, *traceFlag == 1, out)
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	if err := errors.Join(enc.Encode(rep), enc.Encode(res), w.Flush()); err != nil {
		fmt.Fprintln(stderr, "perfbench: write result:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %s\n", wl.name, strings.Join(out.gate, "; "))
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// render builds the result line and the report line of a run. A run that
// failed a gate reports no metrics.
func render(wl workloadDef, seed uint64, seconds int, traced bool, out outcome) (result, map[string]any) {
	res := result{
		Correct:   len(out.gate) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	rep := map[string]any{
		"report":   "perfbench/v1",
		"workload": wl.name,
		"why":      wl.why,
		"seed":     seed,
		"seconds":  seconds,
		"traced":   traced,
		"machine":  machine(wl.name),
		"gate":     map[string]any{"passed": res.Correct, "failures": out.gate},
	}
	for k, v := range out.report {
		rep[k] = v
	}
	if !res.Correct {
		return res, rep
	}
	e2e := map[string]metricValue{}
	for _, m := range append(slices.Clone(endToEnd), reportOnly...) {
		if v, ok := out.e2e[m.name]; ok {
			e2e[m.name] = metricValue{v, m.unit}
		}
	}
	rep["end_to_end"] = e2e
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = e2e[m.name]
		}
		return res, rep
	}
	targets := map[string]string{}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{out.layers[m.name], m.unit}
		targets[m.name] = m.moves
	}
	rep["per_layer_moves"] = targets
	return res, rep
}

// machine stamps a run with what its figures depend on.
func machine(workload string) map[string]any {
	network := "UDP over loopback"
	if workload == wSim {
		network = "none: discrete-event simulator"
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"network":    network,
	}
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

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown: not built from a version-controlled tree"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
