// Wire-path microbenchmarks: the hand-written codecs against the
// retained gob oracle, datagram build/parse, and a live UDP
// acquire/release round trip in both payload encodings. These are the
// numbers behind the codec_vs_gob gate in `lmebench -check` — the fast
// path must stay well under the oracle's cost or the fast path has
// rotted.
package microbench

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand/v2"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/lme2"
	"lme/internal/wire"

	_ "lme/internal/baseline" // register wire codecs
	_ "lme/internal/lme1"     // register wire codecs
)

// wireSamples draws one pseudo-random message per registered codec —
// the working set every encode/decode benchmark loops over, covering
// all three shipped protocols.
func wireSamples(b *testing.B) []core.Message {
	b.Helper()
	rng := rand.New(rand.NewPCG(0xBE7C, 0x7A11))
	var msgs []core.Message
	for _, c := range wire.Registered() {
		if c.Sample == nil {
			continue // test-only fixtures
		}
		msgs = append(msgs, c.Sample(rng))
	}
	if len(msgs) == 0 {
		b.Fatal("no registered codecs with samples")
	}
	return msgs
}

// gobPayload mirrors the transport's gob framing (the message rides as
// an interface value), so the oracle benchmarks measure the real legacy
// hot path: one fresh encoder/decoder per message, as the v1 transport
// ran it.
type gobPayload struct {
	M core.Message
}

// WireEncode measures the zero-allocation codec encode path over one
// sample of every registered message type. One op = one message
// appended to a reused buffer.
func WireEncode(b *testing.B) {
	msgs := wireSamples(b)
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendMessage(buf[:0], msgs[i%len(msgs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// WireDecode measures the codec decode path over pre-encoded samples.
// One op = one message decoded.
func WireDecode(b *testing.B) {
	msgs := wireSamples(b)
	encs := make([][]byte, len(msgs))
	for i, m := range msgs {
		enc, err := wire.AppendMessage(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		encs[i] = enc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeMessage(encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// WireEncodeGob measures the gob oracle encode path — a fresh encoder
// per message, exactly as the v1 transport's per-frame hot path ran.
func WireEncodeGob(b *testing.B) {
	msgs := wireSamples(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(gobPayload{M: msgs[i%len(msgs)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// WireDecodeGob measures the gob oracle decode path over pre-encoded
// samples, one fresh decoder per message.
func WireDecodeGob(b *testing.B) {
	msgs := wireSamples(b)
	encs := make([][]byte, len(msgs))
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(gobPayload{M: m}); err != nil {
			b.Fatal(err)
		}
		encs[i] = buf.Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out gobPayload
		if err := gob.NewDecoder(bytes.NewReader(encs[i%len(encs)])).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}

// DatagramCoalesce measures the framing layer alone, as the UDP sender
// drives it: build one MTU-shaped v3 datagram of coalesced frames into a
// reused buffer (NewDgram headroom, 16 frames encoded in place with
// BeginFrame/EndFrame), seal it with a piggybacked ACK, then parse it
// back frame by frame. One op = one datagram built, sealed and fully
// parsed. No sockets.
func DatagramCoalesce(b *testing.B) {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	const frames = 16
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.NewDgram(buf)
		for f := 0; f < frames; f++ {
			var lenAt int
			buf, lenAt = wire.BeginFrame(buf, uint64(f+1), uint64(f+1), int64(i))
			buf = wire.EndFrame(append(buf, payload...), lenAt)
		}
		pkt := wire.SealDgram(buf, wire.DgramHeader{Flags: wire.FlagAck, From: 3, To: 9, Ack: uint64(i)})
		hdr, body, err := wire.ParseDgram(pkt)
		if err != nil || !hdr.HasAck() || hdr.Ack != uint64(i) {
			b.Fatalf("parse: %v (header %+v)", err, hdr)
		}
		n := 0
		for len(body) > 0 {
			var fv wire.FrameView
			fv, body, err = wire.NextFrame(body)
			if err != nil {
				b.Fatal(err)
			}
			if len(fv.Payload) != len(payload) {
				b.Fatal("payload length drift")
			}
			n++
		}
		if n != frames {
			b.Fatalf("parsed %d frames, want %d", n, frames)
		}
	}
}

// udpAcquireRelease is the shared body of the live round-trip pair: a
// 4-node line running alg2 over loopback UDP, with the benchmark
// alternating Acquire/Release between the two interior nodes so every
// acquisition forces fork traffic across the wire. One op = one
// granted-and-released lease.
func udpAcquireRelease(b *testing.B, opts livenet.UDPOptions) {
	g := graph.Line(4)
	protos := make([]core.Protocol, g.N())
	for i := range protos {
		protos[i] = lme2.New()
	}
	tr, err := livenet.NewUDPTransportOpts(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := livenet.New(livenet.Config{Transport: tr}, g, protos)
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop() //nolint:errcheck
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := cluster.Node(core.NodeID(1 + i%2)).Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := lease.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// UDPAcquireRelease measures the end-to-end lock service over UDP with
// the codec wire path (coalescing, piggybacked ACKs).
func UDPAcquireRelease(b *testing.B) {
	udpAcquireRelease(b, livenet.UDPOptions{})
}

// UDPAcquireReleaseGob is the same round trip over the gob oracle
// encoding — the v1 wire path, kept as the comparison baseline.
func UDPAcquireReleaseGob(b *testing.B) {
	udpAcquireRelease(b, livenet.UDPOptions{Gob: true})
}
