package microbench

import (
	"runtime"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/trace"
)

// pingMsg is the payload of the storm protocol; empty so the benchmarks
// time the engine, not encoding.
type pingMsg struct{}

// pingProto keeps one message ping-ponging on every edge forever: Init
// sends to each higher-id neighbour (one token per edge, not two), and
// every delivery is answered. The resulting event rate is O(edges/ν) —
// a uniform, unbounded storm that saturates the per-tile heaps without
// any protocol logic in the profile.
type pingProto struct {
	env core.Env
}

func (p *pingProto) Init(env core.Env) {
	p.env = env
	me := env.ID()
	for _, nb := range env.Neighbors() {
		if nb > me {
			env.Send(nb, pingMsg{})
		}
	}
}
func (p *pingProto) OnMessage(from core.NodeID, msg core.Message) { p.env.Send(from, pingMsg{}) }
func (p *pingProto) OnLinkUp(core.NodeID, bool)                   {}
func (p *pingProto) OnLinkDown(core.NodeID)                       {}
func (p *pingProto) BecomeHungry()                                {}
func (p *pingProto) ExitCS()                                      {}
func (p *pingProto) State() core.State                            { return core.Thinking }

// scaleWorld builds the large-n benchmark world: an n-node square lattice
// with radius 1.45× the spacing (δ=8 interior degree), the storm protocol
// on every node, and the requested engine configuration. tiles ≤ 1 is the
// single-heap engine.
func scaleWorld(b *testing.B, n, tiles, workers int) *manet.World {
	return scaleWorldTel(b, n, tiles, workers, false)
}

// scaleWorldTel is scaleWorld with the telemetry switch exposed, for the
// ShardBarrier/TelemetryFold overhead pair.
func scaleWorldTel(b *testing.B, n, tiles, workers int, tel bool) *manet.World {
	b.Helper()
	cfg := manet.DefaultConfig()
	cfg.Seed = 1
	side := 1
	for side*side < n {
		side++
	}
	spacing := 1.0 / float64(side)
	cfg.Radius = 1.45 * spacing
	cfg.Tiles = tiles
	cfg.ShardWorkers = workers
	cfg.Telemetry = tel
	w := manet.NewWorld(cfg)
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{
			X: (float64(i%side) + 0.5) * spacing,
			Y: (float64(i/side) + 0.5) * spacing,
		})
		w.SetProtocol(id, &pingProto{})
	}
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	return w
}

// runScaleChunks is the shared measurement loop: one op = one 5ms slab of
// virtual time. Alongside the stock ns/op it reports the two headline
// scale metrics — engine throughput (events/s of wall time) and resident
// heap per node after the run (process-wide HeapAlloc/n, an upper bound
// that includes the benchmark harness itself).
func runScaleChunks(b *testing.B, w *manet.World, n int) {
	b.Helper()
	start := w.Processed()
	const chunk = sim.Time(5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunUntil(w.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	events := w.Processed() - start
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/float64(n), "heapB/node")
}

// ScaleSweep1k is the single-heap reference at n=1000: the baseline the
// sharded engine's throughput is judged against.
func ScaleSweep1k(b *testing.B) { runScaleChunks(b, scaleWorld(b, 1_000, 1, 0), 1_000) }

// ScaleSweep1kSharded is the same world on the sharded engine (AutoTiles
// grid, GOMAXPROCS workers). On a single-core host this measures the
// sharding overhead; the speedup headroom only shows on multi-core.
func ScaleSweep1kSharded(b *testing.B) {
	runScaleChunks(b, scaleWorld(b, 1_000, manet.AutoTiles(1_000), 0), 1_000)
}

// ScaleSweep10k pushes the single-heap engine to n=10000.
func ScaleSweep10k(b *testing.B) { runScaleChunks(b, scaleWorld(b, 10_000, 1, 0), 10_000) }

// ScaleSweep10kSharded is n=10000 on the sharded engine — the
// configuration the ≥4× multi-core acceptance target is measured on.
func ScaleSweep10kSharded(b *testing.B) {
	runScaleChunks(b, scaleWorld(b, 10_000, manet.AutoTiles(10_000), 0), 10_000)
}

// ShardBarrier is the telemetry-overhead reference: the n=1000 sharded
// storm with an explicit 2-worker bound (so the parallel window/barrier
// path runs even on a single-core host) and telemetry off — the dark
// fast path, which must stay allocation-free.
func ShardBarrier(b *testing.B) {
	runScaleChunks(b, scaleWorldTel(b, 1_000, manet.AutoTiles(1_000), 2, false), 1_000)
}

// ShardDispatch is the effect-heavy barrier: the n=10000 sharded storm
// with an explicit 2-worker bound and a bus subscriber on every send and
// delivery, so each window buffers thousands of effects that the barrier
// must merge across tiles and dispatch in canonical order. The other
// sharded worlds publish almost nothing and never reach that path.
func ShardDispatch(b *testing.B) {
	w := scaleWorldTel(b, 10_000, manet.AutoTiles(10_000), 2, false)
	var seen uint64
	w.Bus().Subscribe(func(trace.Event) { seen++ }, trace.KindSend, trace.KindDeliver)
	// Warm past the initial link-up storm, so the tiles' effect buffers
	// and delivery pools have reached their steady-state size and the
	// measured slabs see only the barrier's own cost.
	for i := 0; i < 10; i++ {
		if err := w.RunUntil(w.Now()+5_000, 0); err != nil {
			b.Fatal(err)
		}
	}
	runScaleChunks(b, w, 10_000)
	if seen == 0 {
		b.Fatal("the subscriber saw no events")
	}
}

// TelemetryFold prices engine telemetry: two identical sharded worlds —
// telemetry off and on — advance in interleaved 5ms slabs, each slab
// timed separately. Interleaving makes the ratio robust against clock
// drift, GC pressure and frequency scaling that sink cross-benchmark
// ns/op comparisons; the "overhead_x" extra (telemetry ns / dark ns) is
// the whole price of the per-window fold (per-tile deltas, imbalance,
// span/stall sketches, worker scratch), and lmebench -micro -check
// fails if it exceeds the pinned budget.
func TelemetryFold(b *testing.B) {
	dark := scaleWorldTel(b, 1_000, manet.AutoTiles(1_000), 2, false)
	tel := scaleWorldTel(b, 1_000, manet.AutoTiles(1_000), 2, true)
	const chunk = sim.Time(5_000)
	// Warm both worlds past the initial link-up storm so the measured
	// slabs see the same steady state, and start from a clean heap.
	for i := 0; i < 10; i++ {
		if err := dark.RunUntil(dark.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		if err := tel.RunUntil(tel.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	var darkNS, telNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := dark.RunUntil(dark.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := tel.RunUntil(tel.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		darkNS += t1.Sub(t0).Nanoseconds()
		telNS += time.Since(t1).Nanoseconds()
	}
	b.StopTimer()
	if darkNS > 0 {
		b.ReportMetric(float64(telNS)/float64(darkNS), "overhead_x")
	}
}

// ShardedChurn layers mobility on the sharded storm: n=1000 with 64
// random-waypoint movers crossing tile boundaries, so the profile
// includes link churn, tile migration and the serialized topology path —
// the worst case for the window loop, not just its steady state.
func ShardedChurn(b *testing.B) {
	const n = 1_000
	cfg := manet.DefaultConfig()
	cfg.Seed = 3
	side := 32 // 32² ≥ 1000
	spacing := 1.0 / float64(side)
	cfg.Radius = 1.45 * spacing
	cfg.Tiles = manet.AutoTiles(n)
	w := manet.NewWorld(cfg)
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{
			X: (float64(i%side) + 0.5) * spacing,
			Y: (float64(i/side) + 0.5) * spacing,
		})
		w.SetProtocol(id, &pingProto{})
	}
	movers := make([]core.NodeID, 0, 64)
	for i := 0; i < 64; i++ {
		movers = append(movers, core.NodeID(i*15))
	}
	manet.Waypoint{Speed: 0.4, PauseMin: 1_000, PauseMax: 10_000}.Attach(w, movers)
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	runScaleChunks(b, w, n)
}
