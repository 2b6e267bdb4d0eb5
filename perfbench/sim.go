package main

import (
	"fmt"
	"runtime"
	"time"

	"lme"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/trace"
	"lme/internal/workload"
)

// simSpec shapes the simulator workload: Algorithm 1 with greedy
// recolouring on a lattice, the sharded engine at its automatic tiling,
// the span layer in streaming-fold mode (as lmesim runs by default), a
// share of random-waypoint movers, and the centre node crashed at a third
// of the horizon.
type simSpec struct {
	rows, cols int
	movers     float64 // share of nodes that roam
	speed      float64 // plane units per second
	horizon    time.Duration
	// minReps is the fewest simulations a run makes, so that the digest
	// of one seed is always compared across runs.
	minReps int
}

var simMobileLattice10k = simSpec{
	rows: 100, cols: 100, movers: 0.05, speed: 0.3,
	horizon: 100 * time.Millisecond, minReps: 2,
}

func (s simSpec) n() int { return s.rows * s.cols }

func (s simSpec) topology() lme.Topology { return lme.Grid(s.rows, s.cols) }

func (s simSpec) config(seed uint64) lme.Config {
	return lme.Config{
		Algorithm: lme.Alg1Greedy,
		Topology:  s.topology(),
		Seed:      seed,
		Tiles:     lme.AutoTiles(s.n()),
		FoldSpans: true,
	}
}

// moverIDs spreads the movers evenly over the node ids.
func (s simSpec) moverIDs() []int {
	n := s.n()
	m := int(float64(n) * s.movers)
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i * n / m
	}
	return ids
}

func (s simSpec) centre() int { return (s.rows/2)*s.cols + s.cols/2 }

func (s simSpec) roamUntil() time.Duration { return s.horizon * 3 / 4 }

func (s simSpec) crashAt() time.Duration { return s.horizon / 3 }

// simDigest holds the deterministic fields of a simulation: equal seeds
// must give equal digests, traced or not.
type simDigest struct {
	Events     uint64
	Meals      int
	Sent       uint64
	RTCount    int
	RTP50      sim.Time
	RTP95      sim.Time
	RTMax      sim.Time
	Violations int
}

func (d simDigest) String() string {
	return fmt.Sprintf("events=%d meals=%d sent=%d rt{n=%d p50=%d p95=%d max=%d} violations=%d",
		d.Events, d.Meals, d.Sent, d.RTCount, d.RTP50, d.RTP95, d.RTMax, d.Violations)
}

func digestOf(events uint64, meals int, sent uint64, rt metrics.Stats, violations int) simDigest {
	return simDigest{
		Events: events, Meals: meals, Sent: sent,
		RTCount: rt.Count, RTP50: rt.P50, RTP95: rt.P95, RTMax: rt.Max,
		Violations: violations,
	}
}

// grantObserver measures every hungry → eating interval, in virtual
// time, off the simulation's state events.
type grantObserver struct {
	hungryAt []sim.Time
	rt       []float64 // virtual ms
}

func (g *grantObserver) observe(e trace.Event) {
	switch e.New {
	case "hungry":
		g.hungryAt[e.Node] = e.At
	case "eating":
		if e.Old == "hungry" {
			g.rt = append(g.rt, float64(e.At-g.hungryAt[e.Node])/1e3)
		}
	}
}

// simRep is one untraced simulation through the lme facade.
type simRep struct {
	setup, wall time.Duration
	digest      simDigest
	rt          []float64
	bytesSent   uint64
	heapNode    float64
	proc        procDelta
}

// runSimRep builds the world through the public facade (timed as
// set-up: construction, movers and crash scheduled, world started), runs
// the horizon, and measures the world's live heap.
func runSimRep(spec simSpec, seed uint64) (simRep, error) {
	var r simRep
	obs := &grantObserver{hungryAt: make([]sim.Time, spec.n())}
	t0 := time.Now()
	s, err := lme.NewSimulation(spec.config(seed))
	if err != nil {
		return r, err
	}
	s.Bus().Subscribe(obs.observe, trace.KindState)
	if err := s.Roam(spec.moverIDs(), spec.speed, spec.roamUntil()); err != nil {
		return r, err
	}
	if err := s.Crash(spec.centre(), spec.crashAt()); err != nil {
		return r, err
	}
	r.setup = time.Since(t0)

	p0 := readProc()
	runErr := s.RunFor(spec.horizon)
	r.proc = readProc().since(p0)
	r.wall = r.proc.wall
	rep := s.Report(r.wall)
	r.digest = digestOf(rep.SchedEvents, rep.Meals, rep.Messages.Sent, s.ResponseStats(), rep.Violations)
	r.bytesSent = rep.Messages.BytesSent
	r.rt = obs.rt
	if runErr != nil {
		return r, fmt.Errorf("simulation: %w", runErr)
	}
	alive := liveHeap()
	runtime.KeepAlive(s) // the world is garbage from here on
	r.heapNode = heapPerNode(alive, liveHeap(), spec.n())
	return r, nil
}

// simE2E derives the end-to-end metrics of one simulation.
func simE2E(spec simSpec, r simRep) map[string]float64 {
	rt := summarize(append([]float64(nil), r.rt...), "ms")
	return map[string]float64{
		"acq_per_s":       float64(r.digest.Meals) / r.wall.Seconds(),
		"grant_p50_ms":    rt.P50,
		"grant_p90_ms":    rt.P90,
		"grant_p99_ms":    rt.P99,
		"bytes_per_acq":   ratio(float64(r.bytesSent), float64(r.digest.Meals)),
		"heap_b_per_node": r.heapNode,
		"setup_s":         r.setup.Seconds(),
		"sim_speedup":     spec.horizon.Seconds() / r.wall.Seconds(),
	}
}

// tracedSim is one traced simulation: the same world built through
// harness.Build, with every protocol wrapped and the span collector fed
// through a timing subscriber.
type tracedSim struct {
	wall   time.Duration
	digest simDigest
	layers map[string]float64
}

// movesCounter counts mobility status changes per node.
type movesCounter struct{ moves []uint64 }

func (m *movesCounter) OnMove(id core.NodeID, _ bool, _ sim.Time) { m.moves[id]++ }

// runTracedSim replays what lme.NewSimulation, Roam, Crash and RunFor do
// for spec, through harness.Build, so that the protocols and the span
// collector can be wrapped. rec holds no spans here: the simulator hands
// protocols its own Env, so a handler has no nested sends to subtract and
// per-node call counters give its cost without a span per event. The span collector is the streaming one the
// facade's FoldSpans selects, attached by this benchmark instead of by
// the harness so that its Feed can be timed; the harness then adds its
// eating timeline, which observes state changes only and changes no
// digest field.
func runTracedSim(spec simSpec, seed uint64, rec *recorder) (tracedSim, error) {
	var t tracedSim
	cfg := spec.config(seed)
	topo := cfg.Topology
	protos, err := lme.NewProtocols(cfg.Algorithm, topo)
	if err != nil {
		return t, err
	}
	protos = wrapProtocols(protos, rec, false)
	run, err := harness.Build(harness.Spec{
		Seed:        seed,
		Points:      topo.Points,
		Radius:      topo.Radius,
		NewProtocol: func(id core.NodeID) core.Protocol { return protos[id] },
		Workload:    workload.DefaultConfig(),
		Tiles:       cfg.Tiles,
		Telemetry:   true,
	})
	if err != nil {
		return t, err
	}
	w := run.World
	col := span.NewStreaming()
	g := graph.UnitDisk(topo.Points, topo.Radius)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				col.SeedLink(core.NodeID(u), core.NodeID(v))
			}
		}
	}
	w.Bus().Subscribe(func(e trace.Event) {
		start := rec.now()
		col.Feed(e)
		end := rec.now()
		rec.feedNs += end - start
		rec.feeds++
	})
	moves := &movesCounter{moves: make([]uint64, spec.n())}
	w.AddMoveListener(moves)

	if err := run.Start(); err != nil {
		return t, err
	}
	ids := make([]core.NodeID, 0, len(spec.moverIDs()))
	for _, id := range spec.moverIDs() {
		ids = append(ids, core.NodeID(id))
	}
	manet.Waypoint{
		Speed:    spec.speed,
		PauseMin: 20_000,
		PauseMax: 200_000,
		Until:    sim.FromDuration(spec.roamUntil()),
	}.Attach(w, ids)
	w.CrashAt(core.NodeID(spec.centre()), sim.FromDuration(spec.crashAt()))

	start := time.Now()
	runErr := run.RunFor(sim.FromDuration(spec.horizon))
	t.wall = time.Since(start)
	col.Finalize(w.Now())
	t.digest = digestOf(w.Processed(), run.TotalMeals(), w.MessagesSent(), run.Recorder.Stats(), len(run.Checker.Violations()))
	if runErr != nil {
		return t, fmt.Errorf("traced simulation: %w", runErr)
	}

	var movesN uint64
	var handlerNs int64
	var calls [numSpanKinds]uint64
	var callNs [numSpanKinds]int64
	var sample []core.Message
	for i := range rec.nodes {
		nr := &rec.nodes[i]
		for k := range calls {
			calls[k] += nr.calls[k]
			callNs[k] += nr.callNs[k]
			handlerNs += nr.callNs[k]
		}
		sample = append(sample, nr.sample...)
		movesN += moves.moves[i]
	}
	linkCalls := calls[spanLinkUp] + calls[spanLinkDown]
	sent := w.MessagesSent()
	meanCall := func(k spanKind) float64 { return ratio(float64(callNs[k]), float64(calls[k])) }
	wc, err := measureWire(sample)
	if err != nil {
		return t, err
	}
	es := w.EngineTelemetry()
	workers := float64(es.Workers)
	wallNs := float64(t.wall)
	t.layers = map[string]float64{
		// Worker time outside protocol handlers and the span fold. A
		// handler running on the coordinator publishes inline, so its
		// time can include some Feed time too: a slight undercount.
		"manet.engine_self_frac":                1 - ratio(float64(handlerNs+rec.feedNs), wallNs*workers),
		"manet.shard.imbalance":                 es.Imbalance,
		"manet.shard.barrier_stall_frac":        ratio(es.BarrierStallNS.Sum, wallNs*workers),
		"manet.shard.steal_hit_ratio":           ratio(float64(es.StealHits), float64(es.StealAttempts)),
		"manet.shard.cross_tile_msgs_per_event": ratio(float64(es.CrossTileMsgs), float64(es.Events)),
		"manet.links.changes":                   float64(linkCalls),
		"manet.links.moves":                     float64(movesN),
		"manet.msgs_dropped_frac":               ratio(float64(run.Registry.Counter(metrics.CtrDropped)), float64(sent)),
		"lme1.msgs_per_meal":                    ratio(float64(sent), float64(run.TotalMeals())),
		"lme1.on_message_ns":                    meanCall(spanOnMessage),
		"lme1.on_link_up_ns":                    meanCall(spanLinkUp),
		"lme1.on_link_down_ns":                  meanCall(spanLinkDown),
		"lme1.become_hungry_ns":                 meanCall(spanHungry),
		"lme1.exit_cs_ns":                       meanCall(spanExitCS),
		"trace.events_per_sim_event":            ratio(float64(w.Bus().Total()), float64(w.Processed())),
		"span.feed_ns":                          ratio(float64(rec.feedNs), float64(rec.feeds)),
		"span.wall_frac":                        ratio(float64(rec.feedNs), wallNs),
		"wire.encode_ns":                        wc.encodeNs,
		"wire.decode_ns":                        wc.decodeNs,
		"wire.bytes_per_msg":                    wc.bytesPerMsg,
	}
	return t, nil
}

// runSim runs the simulator workload. A plain run repeats the simulation
// of one seed while the budget lasts (at least spec.minReps times) and
// reports medians; a traced run makes one plain and one traced
// simulation. Every simulation of the seed must give the same digest.
func runSim(spec simSpec, seed uint64, budget time.Duration, traced bool) (outcome, error) {
	var (
		out  outcome
		reps []simRep
	)
	plainReps := spec.minReps
	if traced {
		plainReps = 1
	}
	start := time.Now()
	for {
		r, err := runSimRep(spec, seed)
		if err != nil {
			return out, err
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		next := elapsed / time.Duration(len(reps))
		if len(reps) >= plainReps && (traced || elapsed+next > budget) {
			break
		}
	}
	perRep := make([]map[string]float64, len(reps))
	digests := map[string]int{}
	for i, r := range reps {
		perRep[i] = simE2E(spec, r)
		digests[r.digest.String()]++
		out.attempted += r.digest.Meals
		if r.digest.Violations > 0 {
			out.gate = append(out.gate, fmt.Sprintf("run %d: %d safety violations", i+1, r.digest.Violations))
		}
	}
	out.e2e = medians(perRep)
	events := make([]float64, len(reps))
	for i, r := range reps {
		events[i] = float64(r.digest.Events) / r.wall.Seconds()
	}
	out.report = map[string]any{
		"runs":          perRep,
		"digest":        reps[0].digest.String(),
		"grant_latency": summarize(append([]float64(nil), reps[0].rt...), "ms (virtual)"),
		"events_per_s":  median(events),
	}
	if traced {
		rec := newRecorder(spec.n(), 0, 0, 2)
		t, err := runTracedSim(spec, seed, rec)
		if err != nil {
			return out, err
		}
		digests[t.digest.String()]++
		out.report["traced_digest"] = t.digest.String()
		tracedE2E := map[string]float64{
			"acq_per_s":   float64(t.digest.Meals) / t.wall.Seconds(),
			"sim_speedup": spec.horizon.Seconds() / t.wall.Seconds(),
		}
		out.report["tracing_overhead"] = overhead(map[string]float64{
			"acq_per_s":   out.e2e["acq_per_s"],
			"sim_speedup": out.e2e["sim_speedup"],
		}, tracedE2E)
		out.layers = t.layers
		out.layers["manet.events_per_s"] = median(events)
		for k, v := range reps[0].proc.layers(float64(reps[0].digest.Events)) {
			out.layers[k] = v
		}
	}
	if len(digests) > 1 {
		out.gate = append(out.gate, fmt.Sprintf("simulations of seed %d disagree: %v", seed, digests))
	}
	return out, nil
}
