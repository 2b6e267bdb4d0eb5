package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lme"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/telemetry"
)

// lockSpec shapes the lock-service workload: Algorithm 2 on a ring, one
// process, UDP over loopback, driven through the lease API. Each round
// builds the cluster and runs two phases on it.
//
// The open phase offers Poisson arrivals at rate per second, each to a
// uniformly random node and timed from its due time. Its load sits well
// under the knee where the UDP shim's retransmits feed on themselves, so
// its latency and wire cost per grant are the service's own, and a change
// that trades latency for throughput (a longer linger) shows there. Its
// grant rate is the offered rate, so it is not the throughput figure.
//
// The closed phase runs a few clients back to back (Acquire → hold →
// Release, no think time), each request to a uniformly random node. Its
// grant rate is what the service turns around at that concurrency: a
// costlier request path (more messages, a slower handler or codec, a
// longer linger) lowers it. The clients are too few to reach the
// retransmit storm that makes a saturated loop of one client per node
// bimodal.
type lockSpec struct {
	nodes   int
	rate    float64 // open phase: arrivals per second
	clients int     // closed phase: back-to-back clients
	hold    time.Duration
	// warm and closedWarm run before each phase's measured slices and are
	// not measured.
	warm, closedWarm time.Duration
	// deadline is how long after its due time an Acquire may wait
	// before it counts as failed.
	deadline time.Duration
	// maxLate bounds the open-loop generator's median lateness; a run
	// whose generator fell further behind its schedule is invalid. It is
	// ten times the median grant latency: host stalls make the
	// generator a millisecond or so late now and then, and since every
	// request is timed from its due time that lateness is already in the
	// latency figures; only a generator that has lost its schedule
	// trips it.
	maxLate time.Duration
	// rounds is how many times a plain run builds, loads and tears down
	// the cluster.
	rounds int
	// setupProbes is how many extra times a plain run builds, starts and
	// stops the cluster without load, so that setup_s is the median of
	// rounds+setupProbes set-ups.
	setupProbes int
	// closedShare is the closed phase's share of a round's measured
	// slices.
	closedShare float64

	// Each figure is taken per slice of sliceLen and reported as the
	// median over all slices of all rounds. On a shared machine the
	// process stalls now and then (CPU steal, a neighbour's burst), and a
	// stall takes over the tail of the slice it falls in; the median
	// slice stays clear of a few stalls, yet moves with a change that
	// slows most requests or stalls most slices.
	sliceLen time.Duration
}

var lockOpenRing1k = lockSpec{
	nodes: 1000, rate: 5000, clients: 16, hold: 300 * time.Microsecond,
	warm: 500 * time.Millisecond, closedWarm: 200 * time.Millisecond,
	deadline: 2 * time.Second, maxLate: 10 * time.Millisecond,
	rounds: 3, setupProbes: 60, closedShare: 0.25,
	sliceLen: 200 * time.Millisecond,
}

// window is the measured interval of a phase, cut into slices.
type window struct {
	start    time.Time
	sliceLen time.Duration
	slices   int
}

func (w window) end() time.Time { return w.start.Add(time.Duration(w.slices) * w.sliceLen) }

// slot returns the slice t falls in, or -1 outside the window.
func (w window) slot(t time.Time) int {
	if t.Before(w.start) {
		return -1
	}
	i := int(t.Sub(w.start) / w.sliceLen)
	if i >= w.slices {
		return -1
	}
	return i
}

// slice is what one measurement slice saw. Requests belong to the slice
// they were due in, grants to the slice they were made in.
type slice struct {
	attempted int
	failed    int
	grants    int
	latency   []time.Duration // due time → grant
	wireBytes uint64          // datagram bytes written during the slice
}

// tally accumulates requests per slice.
type tally struct {
	mu     sync.Mutex
	slices []slice
}

func newTally(w window) *tally { return &tally{slices: make([]slice, w.slices)} }

// lockRound is what one build, load and tear-down of the cluster measured.
type lockRound struct {
	setup        time.Duration
	open, closed []slice
	lateness     []time.Duration // open phase: dispatch time − due time
	// wire0, wire1 and proc span both phases, from the open window's
	// start to the closed window's end; grants counts the leases granted
	// in between.
	wire0, wire1 telemetry.TransportStats
	proc         procDelta
	grants       uint64
	heapNode     float64
	safety       error
}

func (r lockRound) totals() (attempted, failed int) {
	for _, s := range slices.Concat(r.open, r.closed) {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// latencies pools the grant latencies of some slices.
func latencies(ss []slice) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		out = append(out, s.latency...)
	}
	return out
}

// request performs one Acquire → hold → Release on h, due at due, and
// records it in t when it was due inside the window.
func request(h *livenet.Node, id core.NodeID, due time.Time, spec lockSpec, w window, rec *recorder, token uint64, t *tally) {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(spec.deadline))
	if rec != nil {
		rec.acquireCalled(id, token)
	}
	lease, err := h.Acquire(ctx)
	granted := time.Now()
	cancel()
	in := w.slot(due)
	if err != nil {
		if rec != nil {
			rec.acquireAbandoned(id, token)
		}
		if in >= 0 && !errors.Is(err, livenet.ErrStopped) {
			t.mu.Lock()
			t.slices[in].attempted++
			t.slices[in].failed++
			t.mu.Unlock()
		}
		return
	}
	time.Sleep(spec.hold)
	relErr := lease.Release()
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := w.slot(granted); g >= 0 {
		t.slices[g].grants++
	}
	if in < 0 {
		return
	}
	s := &t.slices[in]
	s.attempted++
	if relErr != nil {
		s.failed++ // the lease expired while held
		return
	}
	s.latency = append(s.latency, granted.Sub(due))
}

// openLoop issues Poisson arrivals until the window ends, each request on
// its own goroutine, and reports how late it dispatched each in-window
// arrival.
func openLoop(c *livenet.Cluster, spec lockSpec, seed uint64, begin time.Time, w window, rec *recorder, token *atomic.Uint64, t *tally, wg *sync.WaitGroup) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x0be1007))
	var late []time.Duration
	due, end := begin, w.end()
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second)))
		if !due.Before(end) {
			return late
		}
		id := core.NodeID(rng.IntN(spec.nodes))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if w.slot(due) >= 0 {
			late = append(late, time.Since(due))
		}
		wg.Add(1)
		go func(id core.NodeID, due time.Time, token uint64) {
			defer wg.Done()
			request(c.Node(id), id, due, spec, w, rec, token, t)
		}(id, due, token.Add(1))
	}
}

// closedClient issues requests back to back, each to a uniformly random
// node, until stop is set.
func closedClient(c *livenet.Cluster, spec lockSpec, rng *rand.Rand, w window, stop *atomic.Bool, rec *recorder, token *atomic.Uint64, t *tally) {
	for !stop.Load() {
		id := core.NodeID(rng.IntN(spec.nodes))
		request(c.Node(id), id, time.Now(), spec, w, rec, token.Add(1), t)
	}
}

// sampleWire waits out the slices of w and returns the datagram bytes the
// cluster wrote in each.
func sampleWire(c *livenet.Cluster, w window) []uint64 {
	time.Sleep(time.Until(w.start))
	out := make([]uint64, w.slices)
	prev := c.TransportStats().WireBytes
	for i := range out {
		time.Sleep(time.Until(w.start.Add(time.Duration(i+1) * w.sliceLen)))
		now := c.TransportStats().WireBytes
		out[i], prev = now-prev, now
	}
	return out
}

// settle collects the heap before a set-up. A collection frees the stacks
// of goroutines that have ended: a set-up that found an earlier
// cluster's stacks still cached started its thousands of goroutines
// several times faster than one that did not, and whether a collection
// had run in between was down to timing, which made set-up time bimodal.
// Collecting first makes every set-up start from the same state.
func settle() { runtime.GC() }

// startCluster builds Algorithm 2 on the ring over UDP loopback and starts
// it, timing the whole as set-up. rec, when not nil, wraps the transport
// and every protocol in the timing decorators.
func startCluster(spec lockSpec, seed uint64, rec *recorder) (*livenet.Cluster, time.Duration, error) {
	settle()
	g := graph.Ring(spec.nodes)
	t0 := time.Now()
	protos, err := lme.NewProtocols(lme.Alg2, lme.FromGraph(g))
	if err != nil {
		return nil, 0, err
	}
	udp, err := livenet.NewUDPTransport(g, 0)
	if err != nil {
		return nil, 0, err
	}
	var tr livenet.Transport = udp
	if rec != nil {
		protos = wrapProtocols(protos, rec, true)
		tr = &tracedTransport{inner: udp, rec: rec}
	}
	c, err := livenet.New(livenet.Config{Seed: seed, Transport: tr}, g, protos)
	if err != nil {
		udp.Close()
		return nil, 0, err
	}
	if err := c.Start(); err != nil {
		c.Stop() //nolint:errcheck // the start error is the one to report
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// runLockRound builds the cluster (timed as set-up), runs the open phase
// for its warm-up and measured slices, lets every request in flight
// finish, runs the closed phase likewise, measures the cluster's live
// heap, and stops it.
func runLockRound(spec lockSpec, seed uint64, openSlices, closedSlices int, rec *recorder) (lockRound, error) {
	var r lockRound
	c, setup, err := startCluster(spec, seed, rec)
	if err != nil {
		return r, err
	}
	r.setup = setup

	var (
		token atomic.Uint64
		wg    sync.WaitGroup
		begin = time.Now()
		ow    = window{start: begin.Add(spec.warm), sliceLen: spec.sliceLen, slices: openSlices}
		open  = newTally(ow)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.lateness = openLoop(c, spec, seed, begin, ow, rec, &token, open, &wg)
	}()
	time.Sleep(time.Until(ow.start))
	if rec != nil {
		rec.recording.Store(true)
	}
	r.wire0 = *c.TransportStats()
	p0, acq0 := readProc(), c.Acquisitions()
	openBytes := sampleWire(c, ow)
	wg.Wait()

	var stop atomic.Bool
	cw := window{start: time.Now().Add(spec.closedWarm), sliceLen: spec.sliceLen, slices: closedSlices}
	closed := newTally(cw)
	for i := range spec.clients {
		rng := rand.New(rand.NewPCG(seed, 0xc105ed+uint64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			closedClient(c, spec, rng, cw, &stop, rec, &token, closed)
		}()
	}
	closedBytes := sampleWire(c, cw)
	r.proc = readProc().since(p0)
	r.wire1 = *c.TransportStats()
	r.grants = c.Acquisitions() - acq0
	if rec != nil {
		rec.recording.Store(false)
	}
	stop.Store(true)
	wg.Wait()

	r.open, r.closed = open.slices, closed.slices
	for i := range r.open {
		r.open[i].wireBytes = openBytes[i]
	}
	for i := range r.closed {
		r.closed[i].wireBytes = closedBytes[i]
	}

	alive := liveHeap()
	r.safety = c.Stop()
	if v := c.Violations(); len(v) > 0 && r.safety == nil {
		r.safety = fmt.Errorf("%d safety violations", len(v))
	}
	r.heapNode = heapPerNode(alive, liveHeap(), spec.nodes)
	return r, nil
}

// lockGate checks a round: no safety violation, a grant in every slice of
// both phases, and an open-loop generator that kept to its schedule.
func lockGate(spec lockSpec, r lockRound) error {
	if r.safety != nil {
		return fmt.Errorf("safety: %w", r.safety)
	}
	for i, s := range slices.Concat(r.open, r.closed) {
		if s.grants == 0 || len(s.latency) == 0 {
			return fmt.Errorf("no grant in measurement slice %d", i+1)
		}
	}
	lat := summarize(durationsIn(r.lateness, time.Millisecond), "ms")
	if lat.P50 > float64(spec.maxLate)/float64(time.Millisecond) {
		return fmt.Errorf("open-loop generator ran late: median %.2f ms > %v", lat.P50, spec.maxLate)
	}
	return nil
}

// openFigures derives the open phase's end-to-end figures of a slice.
func openFigures(s slice) map[string]float64 {
	lat := summarize(durationsIn(s.latency, time.Millisecond), "ms")
	return map[string]float64{
		"grant_p50_ms":  lat.P50,
		"grant_p90_ms":  lat.P90,
		"grant_p99_ms":  lat.P99,
		"bytes_per_acq": ratio(float64(s.wireBytes), float64(s.grants)),
	}
}

// closedFigures derives the closed phase's end-to-end figures of a slice.
func closedFigures(s slice, sliceLen time.Duration) map[string]float64 {
	return map[string]float64{"acq_per_s": float64(s.grants) / sliceLen.Seconds()}
}

// lockSlices lists the per-slice figures of some rounds, open phase and
// closed phase.
func lockSlices(spec lockSpec, rounds []lockRound) (open, closed []map[string]float64) {
	for _, r := range rounds {
		for _, s := range r.open {
			open = append(open, openFigures(s))
		}
		for _, s := range r.closed {
			closed = append(closed, closedFigures(s, spec.sliceLen))
		}
	}
	return open, closed
}

// lockE2E derives the end-to-end metrics of some rounds: slice-level
// figures as medians over every slice of every round, heap and set-up as
// medians over the rounds.
func lockE2E(spec lockSpec, rounds []lockRound) map[string]float64 {
	open, closed := lockSlices(spec, rounds)
	m := medians(open)
	maps.Copy(m, medians(closed))
	var heap, setup []float64
	attempted, failed := 0, 0
	for _, r := range rounds {
		a, f := r.totals()
		attempted += a
		failed += f
		heap = append(heap, r.heapNode)
		setup = append(setup, r.setup.Seconds())
	}
	m["heap_b_per_node"] = median(heap)
	m["setup_s"] = median(setup)
	m["fail_ratio"] = ratio(float64(failed), float64(attempted))
	return m
}

// lockLayers derives the per-layer metrics of a traced round from the
// recorder's spans and counters, the wire counters the transport wrapper
// forwarded, and the process counters of the plain round.
func lockLayers(rec *recorder, traced, plain lockRound) (map[string]float64, error) {
	spans, _ := rec.spans()
	f := foldSpans(spans)
	q := func(k spanKind) timing {
		d := f[k].durs
		for i := range d {
			d[i] /= 1e3 // ns → µs
		}
		return summarize(d, "us")
	}
	queueT, mailT, frameT, grantT := q(spanLeaseQueue), q(spanMailbox), q(spanFrame), q(spanGrantWait)
	var sent, grants uint64
	var sample []core.Message
	for i := range rec.nodes {
		sent += rec.nodes[i].sent
		grants += rec.nodes[i].grants
		sample = append(sample, rec.nodes[i].sample...)
	}
	w, err := measureWire(sample)
	if err != nil {
		return nil, err
	}
	d, d0 := traced.wire1, traced.wire0
	framesSent := float64(d.FramesSent - d0.FramesSent)
	data := float64((d.DatagramsSent - d0.DatagramsSent) - (d.AckDatagrams - d0.AckDatagrams))
	rtt := sketchTiming(d.AckRTTUS)
	m := map[string]float64{
		"livenet.lease.queue_p50_us":            queueT.P50,
		"livenet.lease.queue_p99_us":            queueT.P99,
		"livenet.deliver_ns":                    f[spanDeliver].meanNs(),
		"livenet.mailbox_wait_p50_us":           mailT.P50,
		"livenet.mailbox_wait_p99_us":           mailT.P99,
		"livenet.transport.send_ns":             f[spanSend].meanNs(),
		"livenet.transport.frame_p50_us":        frameT.P50,
		"livenet.transport.frame_p99_us":        frameT.P99,
		"livenet.udp.retransmits_per_frame":     ratio(float64(d.Retransmits-d0.Retransmits), framesSent),
		"livenet.udp.dup_drops_per_frame":       ratio(float64(d.DupDrops-d0.DupDrops), framesSent),
		"livenet.udp.frames_per_dgram":          ratio(float64(d.FramesWire-d0.FramesWire), data),
		"livenet.udp.ack_dgrams_per_data_dgram": ratio(float64(d.AckDatagrams-d0.AckDatagrams), data),
		"livenet.udp.payload_share":             ratio(float64(d.PayloadBytes-d0.PayloadBytes), float64(d.WireBytes-d0.WireBytes)),
		"livenet.udp.ack_rtt_p50_us":            rtt.P50,
		"livenet.udp.ack_rtt_p99_us":            rtt.P99,
		"lme2.msgs_per_acq":                     ratio(float64(sent), float64(grants)),
		"lme2.handler_self_ns":                  f[spanOnMessage].meanSelfNs(),
		"lme2.hungry_to_grant_p50_us":           grantT.P50,
		"lme2.hungry_to_grant_p99_us":           grantT.P99,
		"wire.encode_ns":                        w.encodeNs,
		"wire.decode_ns":                        w.decodeNs,
		"wire.bytes_per_msg":                    w.bytesPerMsg,
	}
	for k, v := range plain.proc.layers(float64(plain.grants)) {
		m[k] = v
	}
	return m, nil
}

// runLock runs the lock workload. A plain run first makes
// spec.setupProbes unloaded set-ups, then builds, loads and stops the
// cluster spec.rounds times in what is left of the budget; a traced run
// makes one plain round and one traced round.
func runLock(spec lockSpec, seed uint64, budget time.Duration, traced bool) (outcome, error) {
	began := time.Now()
	var (
		out     outcome
		results []lockRound
		rec     *recorder
		setups  []float64
	)
	rounds := spec.rounds
	if traced {
		rounds = 2
	} else {
		for range spec.setupProbes {
			c, setup, err := startCluster(spec, seed, nil)
			if err != nil {
				return out, err
			}
			if err := c.Stop(); err != nil {
				return out, fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, setup.Seconds())
		}
	}
	roundLen := (budget-time.Since(began))/time.Duration(rounds) - spec.warm - spec.closedWarm
	measured := max(int(roundLen/spec.sliceLen), 2)
	closedSlices := max(int(float64(measured)*spec.closedShare+0.5), 1)
	openSlices := max(measured-closedSlices, 1)
	for i := range rounds {
		var r *recorder
		if traced && i == 1 {
			rec = newRecorder(spec.nodes, 512, 256, 16)
			r = rec
		}
		lr, err := runLockRound(spec, seed, openSlices, closedSlices, r)
		if err != nil {
			return out, err
		}
		if err := lockGate(spec, lr); err != nil {
			out.gate = append(out.gate, fmt.Sprintf("round %d: %v", i+1, err))
		}
		a, f := lr.totals()
		out.attempted += a
		out.failed += f
		results = append(results, lr)
		setups = append(setups, lr.setup.Seconds())
	}

	var openLat, closedLat, lateness []time.Duration
	perRound := make([]map[string]float64, len(results))
	for i, lr := range results {
		openLat = append(openLat, latencies(lr.open)...)
		closedLat = append(closedLat, latencies(lr.closed)...)
		lateness = append(lateness, lr.lateness...)
		perRound[i] = lockE2E(spec, results[i:i+1])
	}
	open, closed := lockSlices(spec, results)
	out.report = map[string]any{
		"slice_quartiles":             map[string]any{"open": quartiles(open), "closed": quartiles(closed)},
		"rounds":                      perRound,
		"slices_per_round":            map[string]int{"open": openSlices, "closed": closedSlices},
		"closed_clients":              spec.clients,
		"open_grant_latency_pooled":   summarize(durationsIn(openLat, time.Millisecond), "ms"),
		"closed_grant_latency_pooled": summarize(durationsIn(closedLat, time.Millisecond), "ms"),
		"generator_lateness":          summarize(durationsIn(lateness, time.Millisecond), "ms"),
		"generator_lateness_bound_ms": float64(spec.maxLate) / float64(time.Millisecond),
		"setups_s":                    setups,
	}
	if !traced {
		out.e2e = lockE2E(spec, results)
		out.e2e["setup_s"] = median(setups)
		return out, nil
	}
	plain, tr := results[0], results[1]
	out.e2e = perRound[0]
	out.report["tracing_overhead"] = overhead(perRound[0], perRound[1])
	spans, dropped := rec.spans()
	out.report["spans"] = map[string]any{"recorded": len(spans), "dropped": dropped}
	if len(out.gate) > 0 {
		return out, nil
	}
	layers, err := lockLayers(rec, tr, plain)
	if err != nil {
		out.gate = append(out.gate, err.Error())
		return out, nil
	}
	out.layers = layers
	return out, nil
}

// medians reduces per-part figures to their medians.
func medians(parts []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range parts[0] {
		vs := make([]float64, len(parts))
		for i, p := range parts {
			vs[i] = p[k]
		}
		out[k] = median(vs)
	}
	return out
}

// quartiles reduces per-part figures to their lower quartile, median and
// upper quartile.
func quartiles(parts []map[string]float64) map[string][3]float64 {
	out := map[string][3]float64{}
	for k := range parts[0] {
		vs := make([]float64, len(parts))
		for i, p := range parts {
			vs[i] = p[k]
		}
		slices.Sort(vs)
		out[k] = [3]float64{quantile(vs, 0.25), quantile(vs, 0.5), quantile(vs, 0.75)}
	}
	return out
}

// overhead is the traced run's end-to-end figures minus the plain run's.
func overhead(plain, traced map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range plain {
		out[k] = traced[k] - v
	}
	return out
}
