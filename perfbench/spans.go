package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/core"
)

// spanKind names the wrapper boundary a span was recorded at.
type spanKind uint8

const (
	spanSend       spanKind = iota // inside Transport.Send
	spanFrame                      // Transport.Send → DeliverFunc: the frame in flight
	spanDeliver                    // inside the cluster's DeliverFunc
	spanMailbox                    // DeliverFunc → Protocol.OnMessage: queued in the node's inbox
	spanOnMessage                  // inside Protocol.OnMessage
	spanHungry                     // inside Protocol.BecomeHungry
	spanExitCS                     // inside Protocol.ExitCS
	spanLinkUp                     // inside Protocol.OnLinkUp
	spanLinkDown                   // inside Protocol.OnLinkDown
	spanLeaseQueue                 // Node.Acquire call → Protocol.BecomeHungry
	spanGrantWait                  // Protocol.BecomeHungry → the eating transition
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanSend:       "transport.send",
	spanFrame:      "transport.frame",
	spanDeliver:    "cluster.deliver",
	spanMailbox:    "cluster.mailbox",
	spanOnMessage:  "proto.on_message",
	spanHungry:     "proto.become_hungry",
	spanExitCS:     "proto.exit_cs",
	spanLinkUp:     "proto.on_link_up",
	spanLinkDown:   "proto.on_link_down",
	spanLeaseQueue: "lease.queue",
	spanGrantWait:  "proto.hungry_to_grant",
}

func (k spanKind) String() string { return spanNames[k] }

// timedSpan is one timed interval at a wrapper boundary. Times are nanoseconds
// since the recorder's epoch; parent is the id of the span that caused
// this one (0 for none).
type timedSpan struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

// spanBuf is a fixed-capacity span buffer written by one goroutine at a
// time. Once full it drops further spans and counts them, so memory stays
// bounded however long the run is; ids stay unique across buffers because
// each buffer owns a disjoint id range.
type spanBuf struct {
	base    uint64
	spans   []timedSpan
	dropped uint64
	on      *atomic.Bool // spans are kept only while it is set
}

func newSpanBuf(index, capacity int, on *atomic.Bool) spanBuf {
	return spanBuf{base: uint64(index+1) << 32, spans: make([]timedSpan, 0, capacity), on: on}
}

// reserve claims a slot for a span whose end is not known yet, so that its
// children can name it as their parent. It returns 0 when recording is
// off or the buffer is full.
func (b *spanBuf) reserve() uint64 {
	if !b.on.Load() {
		return 0
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	b.spans = append(b.spans, timedSpan{id: b.base + uint64(len(b.spans)) + 1})
	return b.spans[len(b.spans)-1].id
}

// fill completes a reserved span; a zero id (a dropped span) is ignored.
func (b *spanBuf) fill(id uint64, kind spanKind, parent uint64, start, end int64) {
	if id == 0 {
		return
	}
	s := &b.spans[id-b.base-1]
	s.kind, s.parent, s.start, s.end = kind, parent, start, end
}

// add records a finished span and returns its id (0 when dropped).
func (b *spanBuf) add(kind spanKind, parent uint64, start, end int64) uint64 {
	id := b.reserve()
	b.fill(id, kind, parent, start, end)
	return id
}

// stamp is a pending cause: the span that started something and when.
type stamp struct {
	span uint64
	at   int64
	seq  uint64
}

// fifo is a queue of stamps.
type fifo struct{ items []stamp }

func (q *fifo) push(s stamp) { q.items = append(q.items, s) }

func (q *fifo) pop() (stamp, bool) {
	if len(q.items) == 0 {
		return stamp{}, false
	}
	s := q.items[0]
	q.items = q.items[1:]
	return s, true
}

// nodeRec is everything the wrappers record for one node. The loop half
// is touched only by the goroutine running the node's handlers (the live
// node's event loop, or the simulator worker that owns the node during a
// window); the net half is shared with transport goroutines and client
// goroutines and sits under mu.
type nodeRec struct {
	// Loop half.
	loop     spanBuf
	cur      uint64 // id of the handler span in progress
	hungry   bool
	hungryAt int64
	hungryID uint64
	sent     uint64 // frames the node handed to the transport
	grants   uint64 // eating transitions seen after a wrapped call
	calls    [numSpanKinds]uint64
	callNs   [numSpanKinds]int64
	sample   []core.Message // messages captured for the wire layer

	// Net half.
	mu       sync.Mutex
	net      spanBuf
	inflight map[core.NodeID]*fifo // frames sent to this node, by sender
	inbox    map[core.NodeID]*fifo // frames delivered to this node, by sender
	acquires []stamp               // Acquire calls waiting for BecomeHungry
}

// recorder owns the spans of one traced run. Everything is accumulated
// per node: the sharded simulator runs handlers of different nodes
// concurrently, so shared counters would race or contend.
type recorder struct {
	epoch  time.Time
	nodes  []nodeRec
	sample int // messages captured per node for the wire layer
	// recording gates the span buffers, so that they fill inside the
	// measurement window rather than during the warm-up; the counters
	// run throughout.
	recording atomic.Bool

	// The span collector's Feed cost. The event bus publishes from one
	// goroutine at a time, so these need no lock.
	feedNs int64
	feeds  uint64
}

func newRecorder(n, loopCap, netCap, sample int) *recorder {
	r := &recorder{
		epoch:  time.Now(),
		nodes:  make([]nodeRec, n),
		sample: sample,
	}
	for i := range r.nodes {
		nr := &r.nodes[i]
		nr.loop = newSpanBuf(2*i, loopCap, &r.recording)
		nr.net = newSpanBuf(2*i+1, netCap, &r.recording)
		nr.inflight = map[core.NodeID]*fifo{}
		nr.inbox = map[core.NodeID]*fifo{}
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// queue returns the per-sender fifo of m, creating it on first use.
func queue(m map[core.NodeID]*fifo, from core.NodeID) *fifo {
	q := m[from]
	if q == nil {
		q = &fifo{}
		m[from] = q
	}
	return q
}

// acquireCalled notes that a client called Acquire on node id; the token
// lets a client that gave up withdraw its entry.
func (r *recorder) acquireCalled(id core.NodeID, token uint64) {
	nr := &r.nodes[id]
	nr.mu.Lock()
	nr.acquires = append(nr.acquires, stamp{at: r.now(), seq: token})
	nr.mu.Unlock()
}

// acquireAbandoned withdraws a failed Acquire that never reached the
// protocol.
func (r *recorder) acquireAbandoned(id core.NodeID, token uint64) {
	nr := &r.nodes[id]
	nr.mu.Lock()
	nr.acquires = slices.DeleteFunc(nr.acquires, func(s stamp) bool { return s.seq == token })
	nr.mu.Unlock()
}

// spans gathers every recorded span and the number dropped for lack of
// buffer space.
func (r *recorder) spans() (all []timedSpan, dropped uint64) {
	for i := range r.nodes {
		nr := &r.nodes[i]
		nr.mu.Lock()
		all = append(all, nr.loop.spans...)
		all = append(all, nr.net.spans...)
		dropped += nr.loop.dropped + nr.net.dropped
		nr.mu.Unlock()
	}
	return all, dropped
}

// kindFold is the fold of all spans of one kind.
type kindFold struct {
	count  int
	totNs  int64
	selfNs int64
	durs   []float64 // span lengths in ns, unsorted
}

// meanSelfNs is the mean self time: length minus the children's cover.
func (k kindFold) meanSelfNs() float64 { return ratio(float64(k.selfNs), float64(k.count)) }

// meanNs is the mean span length.
func (k kindFold) meanNs() float64 { return ratio(float64(k.totNs), float64(k.count)) }

// foldSpans folds spans by kind. A span's self time is its length minus
// the part of its interval that its children cover: children are clipped
// to the parent's interval and their overlaps counted once. Reserved but
// never filled slots (a handler still running when the run stopped) are
// skipped.
func foldSpans(spans []timedSpan) [numSpanKinds]kindFold {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out [numSpanKinds]kindFold
	for _, s := range spans {
		if s.end == 0 && s.start == 0 {
			continue
		}
		d := s.end - s.start
		k := &out[s.kind]
		k.count++
		k.totNs += d
		k.selfNs += d - covered(s.start, s.end, children[s.id])
		k.durs = append(k.durs, float64(d))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}
