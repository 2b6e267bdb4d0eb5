package main

import (
	"sync/atomic"
	"testing"
)

func TestFoldSelfTime(t *testing.T) {
	spans := []timedSpan{
		{id: 1, kind: spanOnMessage, start: 0, end: 100},
		// Overlapping children are counted once: [10, 50).
		{id: 2, parent: 1, kind: spanSend, start: 10, end: 30},
		{id: 3, parent: 1, kind: spanSend, start: 20, end: 50},
		// A child running past its parent is clipped to [90, 100).
		{id: 4, parent: 1, kind: spanSend, start: 90, end: 120},
		// A grandchild does not count against its grandparent.
		{id: 5, parent: 2, kind: spanFrame, start: 12, end: 200},
		// A reserved slot never filled (a handler still running at the
		// end) is skipped.
		{id: 6},
	}
	f := foldSpans(spans)
	h := f[spanOnMessage]
	if h.count != 1 || h.totNs != 100 || h.selfNs != 50 {
		t.Errorf("handler fold = %+v, want count 1, total 100, self 50", h)
	}
	s := f[spanSend]
	// Send 2 loses [12, 30) to its frame; sends 3 and 4 have no children.
	if s.count != 3 || s.totNs != 20+30+30 || s.selfNs != 2+30+30 {
		t.Errorf("send fold = %+v, want count 3, total 80, self 62", s)
	}
	if fr := f[spanFrame]; fr.count != 1 || fr.selfNs != 188 || fr.meanNs() != 188 {
		t.Errorf("frame fold = %+v", fr)
	}
	if f[spanOnMessage].meanSelfNs() != 50 {
		t.Errorf("mean self = %v", f[spanOnMessage].meanSelfNs())
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 4}}, 4},
		{0, 10, [][2]int64{{-5, 3}, {8, 15}}, 5},
		{0, 10, [][2]int64{{1, 9}, {2, 3}}, 8},
		{0, 10, [][2]int64{{11, 12}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSpanBufBoundsAndGate(t *testing.T) {
	var on atomic.Bool
	b := newSpanBuf(3, 2, &on)
	if id := b.add(spanSend, 0, 1, 2); id != 0 || len(b.spans) != 0 || b.dropped != 0 {
		t.Fatalf("recording off: id %d, %d spans, %d dropped", id, len(b.spans), b.dropped)
	}
	on.Store(true)
	parent := b.reserve()
	child := b.add(spanSend, parent, 2, 3)
	b.fill(parent, spanOnMessage, 0, 1, 4)
	if parent == 0 || child == 0 || parent == child {
		t.Fatalf("ids %d, %d", parent, child)
	}
	if b.add(spanSend, 0, 5, 6) != 0 || b.dropped != 1 {
		t.Fatalf("full buffer must drop and count: dropped %d", b.dropped)
	}
	other := newSpanBuf(4, 2, &on)
	if id := other.reserve(); id == parent || id == child {
		t.Fatalf("buffers share id %d", id)
	}
	if got := b.spans[0]; got.id != parent || got.kind != spanOnMessage || got.end != 4 {
		t.Fatalf("filled span = %+v", got)
	}
}
