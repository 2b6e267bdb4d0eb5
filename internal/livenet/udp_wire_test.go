package livenet

// Tests for the fast wire path (PR 10): datagram coalescing, delayed and
// piggybacked cumulative ACKs, and the loud-failure contract for message
// types with no registered codec.

import (
	"sync"
	"testing"
	"time"

	"lme/internal/graph"
	"lme/internal/wire"
)

// dgramCarriesSeq reports whether any frame of the datagram carries the
// given sequence number.
func dgramCarriesSeq(t *testing.T, pkt []byte, seq uint64) bool {
	t.Helper()
	_, body, err := wire.ParseDgram(pkt)
	if err != nil {
		t.Errorf("unparseable datagram: %v", err)
		return false
	}
	for len(body) > 0 {
		f, rest, err := wire.NextFrame(body)
		if err != nil {
			t.Errorf("unparseable frame: %v", err)
			return false
		}
		if f.Seq == seq {
			return true
		}
		body = rest
	}
	return false
}

// TestUDPAckCoalescing pins the per-ACK-datagram waste fix: a one-way
// flood of N frames must produce far fewer than N standalone ACK
// datagrams (the receiver owes one cumulative ACK per data datagram and
// the linger merges even those), and the data direction must coalesce
// frames into shared datagrams — all without breaking FIFO or
// exactly-once delivery.
func TestUDPAckCoalescing(t *testing.T) {
	const msgs = 400
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	for n := 0; n < msgs; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= msgs }) {
		t.Fatalf("delivered %d of %d frames", col.count(), msgs)
	}
	// Wait until the cumulative ACK covered everything, so the ACK
	// counters are settled.
	sl := tr.send[linkKey{0, 1}]
	if !waitFor(t, 5*time.Second, func() bool {
		sl.mu.Lock()
		n := len(sl.unacked)
		sl.mu.Unlock()
		return n == 0
	}) {
		t.Fatalf("frames still unacked after the flood (stats %+v)", tr.Stats())
	}

	frames := col.link(0, 1)
	seen := make(map[uint64]int, len(frames))
	for n, f := range frames {
		if m := f.Msg.(confMsg); m.N != n {
			t.Fatalf("frame %d carries N=%d — FIFO violated under coalescing", n, m.N)
		}
		seen[f.Mseq]++
	}
	for mseq, c := range seen {
		if c != 1 {
			t.Fatalf("mseq %d delivered %d times", mseq, c)
		}
	}

	st := tr.Stats()
	if st.AckDatagrams == 0 {
		t.Errorf("ack_datagrams = 0; the one-way flood owes standalone ACKs")
	}
	if st.AckDatagrams >= msgs/4 {
		t.Errorf("ack_datagrams = %d for %d frames; delayed ACKs are not coalescing (stats %+v)",
			st.AckDatagrams, msgs, st)
	}
	if st.FramesPerDatagram <= 1 {
		t.Errorf("frames_per_datagram = %v, want > 1 under a flood (stats %+v)",
			st.FramesPerDatagram, st)
	}
	if st.WireBytes == 0 || st.PayloadBytes == 0 || st.DatagramsSent == 0 {
		t.Errorf("wire telemetry not populated: %+v", st)
	}
}

// TestUDPAckPiggyback checks that ACK debt owed while data is flowing the
// other way rides on those data datagrams instead of costing standalone
// ACKs.
func TestUDPAckPiggyback(t *testing.T) {
	const msgs = 300
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	// Paced bidirectional traffic: the pacing spreads the flood across
	// many linger windows so ACK debt keeps meeting buffered reverse data.
	var wg sync.WaitGroup
	for _, dir := range []linkKey{{0, 1}, {1, 0}} {
		wg.Add(1)
		go func(dir linkKey) {
			defer wg.Done()
			for n := 0; n < msgs; n++ {
				tr.Send(Frame{From: dir[0], To: dir[1], Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
				if n%10 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(dir)
	}
	wg.Wait()
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 2*msgs }) {
		t.Fatalf("delivered %d of %d frames", col.count(), 2*msgs)
	}
	st := tr.Stats()
	if st.AcksPiggybacked == 0 {
		t.Errorf("acks_piggybacked = 0 under bidirectional traffic (stats %+v)", st)
	}
}

// unregMsg has no wire codec (and no gob registration): Send must fail
// loudly at the sender, never surface as a silent drop or a peer-side
// decode error.
type unregMsg struct{ X int }

func TestUDPSendUnregisteredPanics(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Send of an unregistered message type did not panic")
		}
		if _, ok := r.(*wire.UnregisteredError); !ok {
			t.Fatalf("panic value %T (%v), want *wire.UnregisteredError", r, r)
		}
	}()
	tr.Send(Frame{From: 0, To: 1, Msg: unregMsg{X: 1}, Mseq: 1})
}

// TestUDPGobModeUnregisteredDrops pins the oracle path's legacy
// semantics: in gob mode an unencodable payload is silently dropped (no
// panic), matching the pre-codec transport.
func TestUDPGobModeUnregisteredDrops(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransportOpts(g, UDPOptions{Gob: true})
	if err != nil {
		t.Fatalf("NewUDPTransportOpts: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	tr.Send(Frame{From: 0, To: 1, Msg: unregMsg{X: 1}, Mseq: 1})
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 7}, Mseq: 2})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 1 }) {
		t.Fatal("the encodable frame never arrived")
	}
	if got := col.link(0, 1); len(got) != 1 || got[0].Msg.(confMsg).N != 7 {
		t.Fatalf("delivered %v, want only the encodable frame", got)
	}
}

// quietUDP builds a two-node UDP transport whose timers never fire
// during a test: an hour of AckDelay and an hour of RTO, so every
// datagram on the wire was sent by the data path itself.
func quietUDP(t *testing.T) (*UDPTransport, *collector) {
	t.Helper()
	tr, err := NewUDPTransportOpts(graph.Line(2), UDPOptions{RTO: time.Hour, AckDelay: time.Hour})
	if err != nil {
		t.Fatalf("NewUDPTransportOpts: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck
	return tr, col
}

// TestUDPLoneSendNotDelayed pins that data never waits on the ACK
// timer: one Send on an idle link must be delivered although neither
// the ACK delay nor the RTO can fire within the test.
func TestUDPLoneSendNotDelayed(t *testing.T) {
	tr, col := quietUDP(t)
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 1}, Mseq: 1})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() == 1 }) {
		t.Fatalf("a lone frame was not delivered (stats %+v)", tr.Stats())
	}
	if st := tr.Stats(); st.DatagramsSent != 1 || st.Retransmits != 0 {
		t.Fatalf("datagrams_sent = %d, retransmits = %d; want one first transmission", st.DatagramsSent, st.Retransmits)
	}
}

// TestUDPAckRidesReverseData pins the delayed-ACK rule: the receiver's
// ACK stays owed — the sender keeps its frame unacknowledged — until
// the receiver has data for the sender, and then rides on that data
// instead of costing a standalone ACK datagram.
func TestUDPAckRidesReverseData(t *testing.T) {
	tr, col := quietUDP(t)
	fwd, rev := tr.send[linkKey{0, 1}], tr.send[linkKey{1, 0}]
	owed := func(sl *udpSendLink) bool {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.ackOwed
	}
	unacked := func(sl *udpSendLink) int {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return len(sl.unacked)
	}

	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 1}, Mseq: 1})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() == 1 && owed(rev) }) {
		t.Fatalf("frame delivered %d times, ack owed %v", col.count(), owed(rev))
	}
	if n := unacked(fwd); n != 1 {
		t.Fatalf("sender holds %d unacked frames before any reverse data, want 1", n)
	}

	tr.Send(Frame{From: 1, To: 0, Msg: confMsg{N: 2}, Mseq: 1})
	if !waitFor(t, 5*time.Second, func() bool { return unacked(fwd) == 0 }) {
		t.Fatalf("reverse data did not carry the owed ACK (stats %+v)", tr.Stats())
	}
	st := tr.Stats()
	if st.AckDatagrams != 0 || st.AcksPiggybacked != 1 {
		t.Fatalf("ack_datagrams = %d, acks_piggybacked = %d; want 0 and 1", st.AckDatagrams, st.AcksPiggybacked)
	}
	if got := col.link(1, 0); len(got) != 1 || got[0].Msg.(confMsg).N != 2 {
		t.Fatalf("reverse link delivered %v", got)
	}
}
