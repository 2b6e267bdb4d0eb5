package manet

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// Every barrier in this package's tests verifies the tiles' effect runs
// before merging them, so a buffer call that breaks (key, sub) order
// fails the run that made it.
func init() { checkEffectOrder = true }

// randomRuns builds one window's worth of per-tile effect runs the way
// tiles produce them: each tile owns a disjoint set of nodes, executes
// distinct events in key order, and stamps every event's effects with a
// rising sub. Instants come from a narrow range, so equal At with
// different owners is common across tiles; some tiles stay empty. The
// id field tags every record so the merge's output can be traced back.
func randomRuns(rng *rand.Rand, ntiles int) []*tile {
	tiles := make([]*tile, ntiles)
	tag := core.NodeID(0)
	for ti := range tiles {
		t := &tile{idx: int32(ti)}
		tiles[ti] = t
		if rng.IntN(4) == 0 {
			continue // an empty run
		}
		keys := make([]sim.Key, 0, 16)
		for range rng.IntN(16) + 1 {
			k := sim.Key{
				At:    sim.Time(rng.IntN(4)),
				Owner: int32(ti + ntiles*rng.IntN(3)),
				Class: uint8(rng.IntN(3)),
				A:     uint64(rng.IntN(3)),
				B:     uint64(rng.IntN(2)),
			}
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		slices.SortFunc(keys, func(a, b sim.Key) int {
			if a.Less(b) {
				return -1
			}
			return 1
		})
		for _, k := range keys {
			t.curKey = k
			t.effSub = 0
			for range rng.IntN(4) + 1 {
				t.buffer(effect{kind: effBus, id: tag})
				tag++
			}
		}
	}
	return tiles
}

// TestEffectMergeMatchesSort is the merge's contract: over randomised
// per-tile runs it yields exactly the records a (key, sub) sort of their
// concatenation would, in that order.
func TestEffectMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var m effMerge
	for iter := range 500 {
		tiles := randomRuns(rng, rng.IntN(12)+1)
		var want []effect
		for _, tl := range tiles {
			mustBeOrdered(tl)
			want = append(want, tl.effs...)
		}
		slices.SortStableFunc(want, func(a, b effect) int {
			if effLess(&a, &b) {
				return -1
			}
			if effLess(&b, &a) {
				return 1
			}
			return 0
		})
		m.init(tiles)
		var got []effect
		for e := m.next(); e != nil; e = m.next() {
			got = append(got, *e)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: merge yielded %d effects, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id {
				t.Fatalf("iter %d: effect %d is #%d (key %+v sub %d), want #%d (key %+v sub %d)",
					iter, i, got[i].id, got[i].key, got[i].sub, want[i].id, want[i].key, want[i].sub)
			}
		}
		if len(m.h) != 0 {
			t.Fatalf("iter %d: %d runs left in the merge heap", iter, len(m.h))
		}
	}
}

// TestEffectOrderAssertion pins the barrier's guard: a tile whose run is
// out of (key, sub) order panics at dispatch instead of being merged
// into a silently reordered trace.
func TestEffectOrderAssertion(t *testing.T) {
	tl := &tile{idx: 3}
	tl.curKey = sim.Key{At: 5, Owner: 1}
	tl.buffer(effect{kind: effBus})
	tl.curKey = sim.Key{At: 4, Owner: 2}
	tl.buffer(effect{kind: effBus})
	sx := &shardExec{active: []*tile{tl}}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "tile 3 effect 1") {
			t.Fatalf("dispatch of an out-of-order run: recovered %v, want the order panic", r)
		}
	}()
	sx.dispatchEffects()
}

// TestShardWorkersExitWithWorld pins the worker pool's lifetime: the
// persistent window workers must not keep an abandoned world alive, and
// must exit once it is collected.
func TestShardWorkersExitWithWorld(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.Radius = 0.2
		cfg.Tiles = 3
		cfg.ShardWorkers = 2
		w := NewWorld(cfg)
		for i := range 30 {
			id := w.AddNode(graph.Point{X: float64(i%6) * 0.15, Y: float64(i/6) * 0.15})
			w.SetProtocol(id, &chatter{})
		}
		Waypoint{Speed: 0.7, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, []core.NodeID{1, 7, 20, 28})
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		if err := w.RunUntil(300_000, 0); err != nil {
			t.Fatal(err)
		}
		if w.shard.wake == nil {
			t.Fatal("no parallel window ran; the test does not reach the worker pool")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the world (started with %d)", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
