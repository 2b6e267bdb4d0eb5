package main

import (
	"lme/internal/core"
	"lme/internal/livenet"
	"lme/internal/telemetry"
)

// tracedTransport times a livenet.Transport. It is transparent: every
// call reaches the wrapped transport unchanged, and it implements
// livenet.StatsSource by delegation, because Cluster.TransportStats finds
// the wire counters by type-asserting its transport for that interface.
type tracedTransport struct {
	inner   livenet.Transport
	rec     *recorder
	deliver livenet.DeliverFunc
}

var (
	_ livenet.Transport   = (*tracedTransport)(nil)
	_ livenet.StatsSource = (*tracedTransport)(nil)
)

func (t *tracedTransport) Start(deliver livenet.DeliverFunc) error {
	t.deliver = deliver
	return t.inner.Start(t.onDeliver)
}

// Send records a send span, parented by the handler that sent the frame.
// The in-flight stamp is queued before the frame is handed on, so a
// delivery racing the return of Send always finds it.
func (t *tracedTransport) Send(f livenet.Frame) {
	from, to := &t.rec.nodes[f.From], &t.rec.nodes[f.To]
	start := t.rec.now()
	id := from.loop.reserve()
	to.mu.Lock()
	queue(to.inflight, f.From).push(stamp{span: id, at: start, seq: f.Mseq})
	to.mu.Unlock()
	t.inner.Send(f)
	from.loop.fill(id, spanSend, from.cur, start, t.rec.now())
	from.sent++
	if len(from.sample) < t.rec.sample {
		from.sample = append(from.sample, f.Msg)
	}
}

// onDeliver wraps the cluster's DeliverFunc: it closes the frame's
// in-flight span, times the delivery, and queues the mailbox stamp the
// receiving handler will pick up.
func (t *tracedTransport) onDeliver(f livenet.Frame) {
	to := &t.rec.nodes[f.To]
	start := t.rec.now()
	to.mu.Lock()
	var frame uint64
	q := queue(to.inflight, f.From)
	// Links are FIFO, so the frame's stamp is the oldest on its link once
	// the stamps of frames the transport dropped are skipped.
	for {
		sent, ok := q.pop()
		if !ok {
			break
		}
		if sent.seq == f.Mseq {
			frame = to.net.add(spanFrame, sent.span, sent.at, start)
			break
		}
	}
	deliver := to.net.reserve()
	queue(to.inbox, f.From).push(stamp{span: deliver, at: start})
	to.mu.Unlock()

	t.deliver(f)

	to.mu.Lock()
	to.net.fill(deliver, spanDeliver, frame, start, t.rec.now())
	to.mu.Unlock()
}

func (t *tracedTransport) LinkDown(a, b core.NodeID) { t.inner.LinkDown(a, b) }

func (t *tracedTransport) Close() error { return t.inner.Close() }

// Stats forwards the wrapped transport's wire telemetry; a transport
// without it reports the zero record.
func (t *tracedTransport) Stats() telemetry.TransportStats {
	if src, ok := t.inner.(livenet.StatsSource); ok {
		return src.Stats()
	}
	return telemetry.TransportStats{}
}

// tracedProto times a core.Protocol. Init passes the runtime's Env
// through untouched: protocols type-assert it for trace.Emitter and
// trace.Interest, which a wrapped Env would hide.
type tracedProto struct {
	inner core.Protocol
	rec   *recorder
	id    core.NodeID
	// live marks a protocol run by livenet, whose deliveries and
	// Acquire calls the recorder sees; simulator deliveries have no
	// transport span to link to.
	live bool
}

var _ core.Protocol = (*tracedProto)(nil)

// wrapProtocols wraps every protocol of a run in a tracedProto.
func wrapProtocols(protos []core.Protocol, rec *recorder, live bool) []core.Protocol {
	out := make([]core.Protocol, len(protos))
	for i, p := range protos {
		out[i] = &tracedProto{inner: p, rec: rec, id: core.NodeID(i), live: live}
	}
	return out
}

func (p *tracedProto) Init(env core.Env) { p.inner.Init(env) }

func (p *tracedProto) State() core.State { return p.inner.State() }

func (p *tracedProto) OnMessage(from core.NodeID, msg core.Message) {
	nr := &p.rec.nodes[p.id]
	start := p.rec.now()
	var parent uint64
	if p.live {
		nr.mu.Lock()
		if s, ok := queue(nr.inbox, from).pop(); ok {
			parent = nr.loop.add(spanMailbox, s.span, s.at, start)
		}
		nr.mu.Unlock()
	} else if len(nr.sample) < p.rec.sample {
		nr.sample = append(nr.sample, msg)
	}
	p.call(spanOnMessage, parent, start, func() { p.inner.OnMessage(from, msg) })
}

func (p *tracedProto) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	p.call(spanLinkUp, 0, p.rec.now(), func() { p.inner.OnLinkUp(peer, iAmMoving) })
}

func (p *tracedProto) OnLinkDown(peer core.NodeID) {
	p.call(spanLinkDown, 0, p.rec.now(), func() { p.inner.OnLinkDown(peer) })
}

// BecomeHungry closes the lease-queue span of the Acquire that caused it
// (live runs) and opens the wait for the grant.
func (p *tracedProto) BecomeHungry() {
	nr := &p.rec.nodes[p.id]
	start := p.rec.now()
	var parent uint64
	if p.live {
		nr.mu.Lock()
		if len(nr.acquires) > 0 {
			s := nr.acquires[0]
			nr.acquires = nr.acquires[1:]
			parent = nr.loop.add(spanLeaseQueue, 0, s.at, start)
		}
		nr.mu.Unlock()
	}
	nr.hungry, nr.hungryAt, nr.hungryID = true, start, parent
	p.call(spanHungry, parent, start, p.inner.BecomeHungry)
}

func (p *tracedProto) ExitCS() {
	p.call(spanExitCS, 0, p.rec.now(), p.inner.ExitCS)
}

// call runs one handler as a span, so that the sends it makes name it as
// their parent, and closes the grant wait when the handler made the node
// eat: protocols report that transition synchronously from inside a
// handler, so the handler's end is when it happened.
func (p *tracedProto) call(kind spanKind, parent uint64, start int64, f func()) {
	nr := &p.rec.nodes[p.id]
	id := nr.loop.reserve()
	prev := nr.cur
	nr.cur = id
	f()
	nr.cur = prev
	end := p.rec.now()
	nr.loop.fill(id, kind, parent, start, end)
	nr.calls[kind]++
	nr.callNs[kind] += end - start
	if nr.hungry && p.inner.State() == core.Eating {
		nr.hungry = false
		nr.grants++
		nr.loop.add(spanGrantWait, nr.hungryID, nr.hungryAt, end)
	}
}
