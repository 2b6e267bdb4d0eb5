package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"lme"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/trace"
)

// TestTracedClusterTransparent runs a small cluster over the in-process
// channel transport with both decorators in place and checks that the
// cluster behaves and reports exactly as it would undecorated, while every
// boundary recorded its spans with the causal parent the design promises.
func TestTracedClusterTransparent(t *testing.T) {
	const n, perNode = 8, 3
	g := graph.Ring(n)
	protos, err := lme.NewProtocols(lme.Alg2, lme.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(n, 4096, 4096, 4)
	rec.recording.Store(true)
	inner := livenet.NewChannelTransport(g, 200*time.Microsecond, 1)
	c, err := livenet.New(livenet.Config{Transport: &tracedTransport{inner: inner, rec: rec}}, g, wrapProtocols(protos, rec, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(id core.NodeID) {
			defer wg.Done()
			for k := range uint64(perNode) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				rec.acquireCalled(id, k)
				lease, err := c.Node(id).Acquire(ctx)
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				if err := lease.Release(); err != nil {
					t.Error(err)
				}
			}
		}(core.NodeID(i))
	}
	wg.Wait()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	// The wire counters reach the cluster through the decorator.
	ts := c.TransportStats()
	if ts == nil {
		t.Fatal("TransportStats is nil: the decorator hides livenet.StatsSource")
	}
	var sent, grants uint64
	for i := range rec.nodes {
		sent += rec.nodes[i].sent
		grants += rec.nodes[i].grants
	}
	// Every send passes the decorator on its way to the transport; the
	// transport drops (and does not count) the few sent while Stop
	// closes it.
	if sent != c.MessagesSent() || ts.FramesSent == 0 || ts.FramesSent > sent {
		t.Errorf("frames sent: transport %d, decorator %d, cluster %d", ts.FramesSent, sent, c.MessagesSent())
	}
	if grants != n*perNode || c.Acquisitions() != n*perNode {
		t.Errorf("grants: decorator %d, cluster %d, want %d", grants, c.Acquisitions(), n*perNode)
	}

	spans, dropped := rec.spans()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	byID := map[uint64]timedSpan{}
	count := map[spanKind]int{}
	for _, s := range spans {
		byID[s.id] = s
		count[s.kind]++
	}
	if count[spanDeliver] != int(ts.FramesDelivered) {
		t.Errorf("%d deliver spans for %d delivered frames", count[spanDeliver], ts.FramesDelivered)
	}
	if count[spanSend] != int(sent) || count[spanLeaseQueue] != n*perNode || count[spanGrantWait] != n*perNode {
		t.Errorf("span counts %v", count)
	}
	wantParent := map[spanKind]spanKind{
		spanFrame:     spanSend,
		spanDeliver:   spanFrame,
		spanMailbox:   spanDeliver,
		spanOnMessage: spanMailbox,
		spanGrantWait: spanLeaseQueue,
	}
	for _, s := range spans {
		want, ok := wantParent[s.kind]
		if !ok {
			continue
		}
		p, found := byID[s.parent]
		if !found || p.kind != want {
			t.Fatalf("%v span %d: parent %d is %v, want a %v span", s.kind, s.id, s.parent, p.kind, want)
		}
		if s.kind != spanFrame && s.kind != spanGrantWait && s.start < p.start {
			t.Fatalf("%v span starts before its parent", s.kind)
		}
	}
	for _, s := range spans {
		if s.kind == spanSend && s.parent != 0 {
			if p := byID[s.parent]; p.kind != spanOnMessage && p.kind != spanHungry && p.kind != spanExitCS {
				t.Fatalf("send span parented by %v", p.kind)
			}
		}
	}
}

// envProbe is a protocol that keeps the Env it was given.
type envProbe struct {
	env core.Env
}

func (p *envProbe) Init(env core.Env)                   { p.env = env }
func (p *envProbe) OnMessage(core.NodeID, core.Message) {}
func (p *envProbe) OnLinkUp(core.NodeID, bool)          {}
func (p *envProbe) OnLinkDown(core.NodeID)              {}
func (p *envProbe) BecomeHungry()                       {}
func (p *envProbe) ExitCS()                             {}
func (p *envProbe) State() core.State                   { return core.Thinking }

// emitterEnv is an Env that is also a trace.Emitter, as both runtimes'
// Envs are.
type emitterEnv struct{ core.Env }

func (emitterEnv) Emit(trace.Event)      {}
func (emitterEnv) Wants(trace.Kind) bool { return true }

func TestTracedProtoPassesEnvThrough(t *testing.T) {
	probe := &envProbe{}
	rec := newRecorder(1, 0, 0, 0)
	wrapped := wrapProtocols([]core.Protocol{probe}, rec, false)[0]
	env := &emitterEnv{}
	wrapped.Init(env)
	if probe.env != core.Env(env) {
		t.Fatalf("Init handed the protocol %T, not the runtime's Env", probe.env)
	}
	if _, ok := probe.env.(trace.Emitter); !ok {
		t.Fatal("the protocol's Env lost trace.Emitter")
	}
	if _, ok := probe.env.(trace.Interest); !ok {
		t.Fatal("the protocol's Env lost trace.Interest")
	}
}

// TestTracedSimDigestMatchesFacade runs a small world with a tiled engine
// (so handlers run on several workers at once: run it with -race) through
// the facade and through the traced harness build, and checks that both
// give the same digest.
func TestTracedSimDigestMatchesFacade(t *testing.T) {
	spec := simSpec{rows: 24, cols: 24, movers: 0.05, speed: 0.3, horizon: 40 * time.Millisecond, minReps: 1}
	if tiles := lme.AutoTiles(spec.n()); tiles < 2 {
		t.Fatalf("AutoTiles(%d) = %d: the test needs the sharded engine", spec.n(), tiles)
	}
	plain, err := runSimRep(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(spec.n(), 0, 0, 2)
	traced, err := runTracedSim(spec, 5, rec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Fatalf("digests differ:\nfacade %v\ntraced %v", plain.digest, traced.digest)
	}
	if plain.digest.Meals == 0 || plain.digest.Violations != 0 {
		t.Fatalf("digest %v", plain.digest)
	}
	for _, k := range []string{"lme1.on_message_ns", "span.feed_ns", "manet.shard.steal_hit_ratio", "wire.encode_ns"} {
		if traced.layers[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, traced.layers[k])
		}
	}
}
