package lme1_test

import (
	"fmt"
	"reflect"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/sim"
	"lme/internal/wire"
)

// capture wraps a protocol and records every message it is delivered,
// so the wire differential runs over the values the algorithm really
// sends rather than over hand-built samples.
type capture struct {
	core.Protocol
	got *[]core.Message
}

func (c capture) OnMessage(from core.NodeID, msg core.Message) {
	*c.got = append(*c.got, msg)
	c.Protocol.OnMessage(from, msg)
}

// TestWireRoundTripsRealTraffic is the codec differential over captured
// traffic: a commuter forces every variant through recolouring, and every
// message delivered in the run must decode back to a value DeepEqual to
// the one sent. Codec.Sample only builds the shapes its author thought
// of; an empty conflict graph, which every greedy recolouring opens with,
// is one it did not.
func TestWireRoundTripsRealTraffic(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		var got []core.Message
		pts := append(harness.CliquePoints(4),
			graph.Point{X: 0.8}, graph.Point{X: 0.801}, graph.Point{X: 0.802},
			graph.Point{X: 0.0005, Y: 0.002})
		r, err := harness.Build(harness.Spec{
			Seed:   4,
			Points: pts,
			Radius: 0.05,
			NewProtocol: func(id core.NodeID) core.Protocol {
				return capture{lme1.New(lme1.Config{Variant: v, N: len(pts), Delta: 7}), &got}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		commuter := core.NodeID(len(pts) - 1)
		for trip := 0; trip < 4; trip++ {
			dest := graph.Point{X: 0.8, Y: 0.002}
			if trip%2 == 1 {
				dest = graph.Point{X: 0.0005, Y: 0.002}
			}
			r.World.JumpAt(commuter, dest, 20_000, sim.Time(300_000+trip*500_000))
		}
		if err := r.RunFor(2_500_000); err != nil {
			t.Fatal(err)
		}
		types := make(map[string]int)
		for _, msg := range got {
			name := fmt.Sprintf("%T", msg)
			types[name]++
			b, err := wire.AppendMessage(nil, msg)
			if err != nil {
				t.Fatalf("encode %s: %v", name, err)
			}
			back, err := wire.DecodeMessage(b)
			if err != nil {
				t.Fatalf("decode %s %+v: %v", name, msg, err)
			}
			if !reflect.DeepEqual(back, msg) {
				t.Fatalf("wire round trip changed a %s: %#v became %#v", name, msg, back)
			}
		}
		if v == lme1.VariantGreedy && types["lme1.msgGraph"] == 0 {
			t.Fatalf("no recolouring traffic captured (types %v); the run does not reach the graph codec", types)
		}
	})
}
