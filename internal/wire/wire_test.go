package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lme/internal/core"
)

type regA struct{ X int }
type regB struct{ Y bool }

// register the local fixtures once; Register panics on duplicates, so
// the helpers below use fresh types per failure case.
func init() {
	Register(Codec{
		ID: 0x7FF0, Name: "wire_test.a", Proto: regA{},
		Append: func(b []byte, m core.Message) []byte {
			return AppendVarint(b, int64(m.(regA).X))
		},
		Decode: func(b []byte) (core.Message, error) {
			r := NewReader(b)
			v := regA{X: int(r.Varint())}
			return v, r.Done()
		},
	})
}

func mustPanic(t *testing.T, contains string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", contains)
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, contains) {
			t.Fatalf("panic %v, want it to contain %q", r, contains)
		}
	}()
	fn()
}

func TestRegisterRejectsBadCodecs(t *testing.T) {
	nopA := func(b []byte, _ core.Message) []byte { return b }
	decA := func(b []byte) (core.Message, error) { return regB{}, nil }

	mustPanic(t, "ID 0 is reserved", func() {
		Register(Codec{Name: "zero", Proto: regB{}, Append: nopA, Decode: decA})
	})
	mustPanic(t, "nil Append or Decode", func() {
		Register(Codec{ID: 0x7FF1, Name: "nofuncs", Proto: regB{}})
	})
	mustPanic(t, "already used", func() {
		Register(Codec{ID: 0x7FF0, Name: "dup-id", Proto: regB{}, Append: nopA, Decode: decA})
	})
	mustPanic(t, "already registered", func() {
		Register(Codec{ID: 0x7FF2, Name: "dup-type", Proto: regA{}, Append: nopA, Decode: decA})
	})
}

func TestAppendMessageRoundTrip(t *testing.T) {
	buf, err := AppendMessage(nil, regA{X: -42})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x7F || buf[1] != 0xF0 {
		t.Fatalf("type-ID prefix wrong: % x", buf)
	}
	msg, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(regA); got.X != -42 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestAppendMessageUnregistered(t *testing.T) {
	type never struct{}
	buf := []byte{1, 2, 3}
	out, err := AppendMessage(buf, never{})
	if err == nil {
		t.Fatal("no error for an unregistered type")
	}
	if _, ok := err.(*UnregisteredError); !ok {
		t.Fatalf("error %T, want *UnregisteredError", err)
	}
	if len(out) != len(buf) {
		t.Fatalf("buffer mutated on error: %d bytes, want %d", len(out), len(buf))
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage([]byte{0x7F}); err == nil {
		t.Error("short payload decoded")
	}
	if _, err := DecodeMessage([]byte{0x00, 0x00}); err == nil {
		t.Error("reserved ID 0 decoded")
	}
	if _, err := DecodeMessage([]byte{0x7F, 0xEE}); err == nil {
		t.Error("unknown ID decoded")
	}
	// Trailing garbage after a valid body must be rejected, not ignored.
	buf, _ := AppendMessage(nil, regA{X: 3})
	if _, err := DecodeMessage(append(buf, 0xFF)); err == nil {
		t.Error("trailing garbage decoded")
	}
	// Truncated body likewise.
	if _, err := DecodeMessage(buf[:2]); err == nil && len(buf) > 2 {
		t.Error("truncated body decoded")
	}
}

func TestReaderLatchesErrors(t *testing.T) {
	r := NewReader(nil)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint on empty = %d", v)
	}
	if r.Bool() {
		t.Error("Bool on empty = true")
	}
	if r.Done() == nil {
		t.Error("Done() nil after underflow")
	}
}

// dgramCase is one datagram the v3 framing tests build, parse and
// truncate; the same table seeds FuzzDgram's corpus.
type dgramCase struct {
	name   string
	hdr    DgramHeader
	frames []FrameView
}

func dgramCases() []dgramCase {
	payload := func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }
	return []dgramCase{
		{"two frames with ack", DgramHeader{Flags: FlagAck, From: 3, To: 9, Ack: 42}, []FrameView{
			{Seq: 7, Mseq: 101, SentAt: 555_000, Payload: []byte("hello")},
			{Seq: 8, Mseq: 102, SentAt: 556_000},
		}},
		{"standalone ack", DgramHeader{Flags: FlagAck, From: 9, To: 3, Ack: 7}, nil},
		{"ack zero", DgramHeader{Flags: FlagAck, From: 1, To: 2}, []FrameView{
			{Seq: 1, Mseq: 1, Payload: []byte{0x02, 0x01}},
		}},
		{"ack absent", DgramHeader{From: 1, To: 2}, []FrameView{
			{Seq: 1, Mseq: 1, Payload: []byte{0x02, 0x01}},
		}},
		{"gob", DgramHeader{Flags: FlagGob, From: 1, To: 2}, []FrameView{
			{Seq: 2, Mseq: 5, SentAt: -1, Payload: []byte("gob")},
		}},
		{"extreme fields", DgramHeader{Flags: FlagAck | FlagGob, From: math.MaxUint32, To: math.MaxUint32, Ack: math.MaxUint64}, []FrameView{
			{Seq: math.MaxUint64, Mseq: math.MaxUint64, SentAt: math.MinInt64, Payload: []byte{0}},
			{Seq: 0, Mseq: 0, SentAt: math.MaxInt64},
		}},
		{"payload 127", DgramHeader{From: 4, To: 5}, []FrameView{{Seq: 1, Mseq: 1, Payload: payload(127)}}},
		{"payload 128", DgramHeader{From: 4, To: 5}, []FrameView{
			{Seq: 1, Mseq: 1, Payload: payload(128)},
			{Seq: 2, Mseq: 2, Payload: []byte("after")},
		}},
		{"payload over 16KiB", DgramHeader{Flags: FlagAck, From: 4, To: 5, Ack: 1}, []FrameView{
			{Seq: 1, Mseq: 1, Payload: payload(16<<10 + 1)},
			{Seq: 2, Mseq: 2, Payload: []byte("after")},
		}},
	}
}

// appendFrame appends one whole frame the way the UDP sender does:
// header, payload in place, length backfilled.
func appendFrame(buf []byte, seq, mseq uint64, sentAt int64, payload []byte) []byte {
	buf, lenAt := BeginFrame(buf, seq, mseq, sentAt)
	return EndFrame(append(buf, payload...), lenAt)
}

func (c dgramCase) build() []byte {
	pkt := NewDgram(nil)
	for _, f := range c.frames {
		pkt = appendFrame(pkt, f.Seq, f.Mseq, f.SentAt, f.Payload)
	}
	return SealDgram(pkt, c.hdr)
}

// parseAll parses a whole datagram: the header and every frame.
func parseAll(pkt []byte) (DgramHeader, []FrameView, error) {
	hdr, body, err := ParseDgram(pkt)
	if err != nil {
		return hdr, nil, err
	}
	var frames []FrameView
	for len(body) > 0 {
		var f FrameView
		if f, body, err = NextFrame(body); err != nil {
			return hdr, frames, err
		}
		frames = append(frames, f)
	}
	return hdr, frames, nil
}

// sameDgram reports whether a parsed datagram carries exactly the
// fields it was built from; an absent ACK parses as 0.
func sameDgram(want DgramHeader, wantFrames []FrameView, got DgramHeader, gotFrames []FrameView) bool {
	if !want.HasAck() {
		want.Ack = 0
	}
	if got != want || len(gotFrames) != len(wantFrames) {
		return false
	}
	for i, f := range gotFrames {
		w := wantFrames[i]
		if f.Seq != w.Seq || f.Mseq != w.Mseq || f.SentAt != w.SentAt || !bytes.Equal(f.Payload, w.Payload) {
			return false
		}
	}
	return true
}

func TestDgramRoundTrip(t *testing.T) {
	for _, c := range dgramCases() {
		hdr, frames, err := parseAll(c.build())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameDgram(c.hdr, c.frames, hdr, frames) {
			t.Fatalf("%s: parsed %+v %+v, built from %+v %+v", c.name, hdr, frames, c.hdr, c.frames)
		}
	}

	// The v3 layout, byte for byte: version, flags, uvarint from/to/ack,
	// then uvarint seq, uvarint mseq, zigzag sentAt, uvarint length.
	pkt := NewDgram(nil)
	pkt = appendFrame(pkt, 7, 101, -2, []byte("hi"))
	pkt = SealDgram(pkt, DgramHeader{Flags: FlagAck, From: 3, To: 300, Ack: 42})
	want := []byte{3, FlagAck, 3, 0xAC, 0x02, 42, 7, 101, 3, 2, 'h', 'i'}
	if !bytes.Equal(pkt, want) {
		t.Fatalf("encoding = % x, want % x", pkt, want)
	}
	// Without FlagAck the ack field is omitted, whatever Ack holds.
	ack := SealDgram(NewDgram(nil), DgramHeader{From: 3, To: 9, Ack: 42})
	if !bytes.Equal(ack, []byte{3, 0, 3, 9}) {
		t.Fatalf("ack-less header = % x", ack)
	}
	// A recycled buffer's leftover bytes never leak into the datagram.
	dirty := bytes.Repeat([]byte{0xFF}, 64)
	again := SealDgram(appendFrame(NewDgram(dirty), 7, 101, -2, []byte("hi")),
		DgramHeader{Flags: FlagAck, From: 3, To: 300, Ack: 42})
	if !bytes.Equal(again, want) {
		t.Fatalf("encoding on a dirty buffer = % x, want % x", again, want)
	}
}

func TestDgramRejectsCorruption(t *testing.T) {
	if _, _, err := ParseDgram([]byte{DgramVersion}); err == nil {
		t.Error("short datagram parsed")
	}
	v2 := SealDgram(NewDgram(nil), DgramHeader{From: 1, To: 2})
	v2[0] = 2 // the fixed-width v2 layout is gone
	if _, _, err := ParseDgram(v2); err == nil {
		t.Error("wrong version parsed")
	}
	over := []byte{DgramVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 1} // from = 2^32
	if _, _, err := ParseDgram(over); err == nil {
		t.Error("sender id beyond uint32 parsed")
	}
	long := append([]byte{DgramVersion, FlagAck, 1, 2}, bytes.Repeat([]byte{0xFF}, 11)...)
	if _, _, err := ParseDgram(long); err == nil {
		t.Error("overlong ack varint parsed")
	}
	if _, _, err := NextFrame([]byte{1, 1, 0, 5, 'a', 'b'}); err == nil {
		t.Error("frame longer than its datagram parsed")
	}
}

// TestDgramTruncation cuts every case at every byte offset: a cut inside
// the header or a frame must fail to parse, and a cut on a frame
// boundary must parse to exactly the frames before it.
func TestDgramTruncation(t *testing.T) {
	for _, c := range dgramCases() {
		pkt := c.build()
		bounds := map[int]int{} // datagram length → frames it holds
		for i := 0; i <= len(c.frames); i++ {
			cut := dgramCase{hdr: c.hdr, frames: c.frames[:i]}
			bounds[len(cut.build())] = i
		}
		for k := 0; k < len(pkt); k++ {
			hdr, frames, err := parseAll(pkt[:k])
			n, boundary := bounds[k]
			switch {
			case boundary && err != nil:
				t.Fatalf("%s: cut at frame boundary %d: %v", c.name, k, err)
			case boundary && !sameDgram(c.hdr, c.frames[:n], hdr, frames):
				t.Fatalf("%s: cut at frame boundary %d parsed %+v %+v", c.name, k, hdr, frames)
			case !boundary && err == nil:
				t.Fatalf("%s: datagram cut to %d of %d bytes parsed", c.name, k, len(pkt))
			}
		}
	}
}

func TestGobFlag(t *testing.T) {
	pkt := SealDgram(NewDgram(nil), DgramHeader{Flags: FlagGob, From: 1, To: 2})
	hdr, _, err := ParseDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Gob() || hdr.HasAck() {
		t.Fatalf("flags = %+v", hdr)
	}
}

// TestBackfillFrameLen drives the in-place path the UDP sender uses:
// BeginFrame, payload appended by the codec, EndFrame backfilling the
// length — widening the length varint past 127 bytes without
// disturbing the frames around it.
func TestBackfillFrameLen(t *testing.T) {
	for _, n := range []int{0, 3, 127, 128, 300, 16<<10 + 1} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		pkt := appendFrame(NewDgram(nil), 1, 1, 1, []byte("before"))
		pkt, lenAt := BeginFrame(pkt, 2, 2, -7)
		pkt = EndFrame(append(pkt, payload...), lenAt)
		pkt = appendFrame(pkt, 3, 3, 3, []byte("after"))
		hdr, frames, err := parseAll(SealDgram(pkt, DgramHeader{From: 1, To: 2}))
		if err != nil {
			t.Fatalf("payload %d: %v", n, err)
		}
		want := []FrameView{
			{Seq: 1, Mseq: 1, SentAt: 1, Payload: []byte("before")},
			{Seq: 2, Mseq: 2, SentAt: -7, Payload: payload},
			{Seq: 3, Mseq: 3, SentAt: 3, Payload: []byte("after")},
		}
		if !sameDgram(DgramHeader{From: 1, To: 2}, want, hdr, frames) {
			t.Fatalf("payload %d: parsed %+v", n, frames)
		}
	}
}

// FuzzDgram holds the v3 framing to two properties: arbitrary bytes
// through ParseDgram/NextFrame never panic (and anything that parses
// re-encodes to a datagram that parses the same), and a datagram built
// from arbitrary fields parses back field for field. The corpus is the
// dgramCases table.
func FuzzDgram(f *testing.F) {
	for _, c := range dgramCases() {
		var fr FrameView
		if len(c.frames) > 0 {
			fr = c.frames[0]
		}
		f.Add(c.build(), c.hdr.Flags, c.hdr.From, c.hdr.To, c.hdr.Ack, fr.Seq, fr.Mseq, fr.SentAt, fr.Payload)
	}
	f.Fuzz(func(t *testing.T, raw []byte, flags byte, from, to uint32, ack, seq, mseq uint64, sentAt int64, payload []byte) {
		if hdr, frames, err := parseAll(raw); err == nil {
			re := dgramCase{hdr: hdr, frames: frames}
			hdr2, frames2, err := parseAll(re.build())
			if err != nil || !sameDgram(hdr, frames, hdr2, frames2) {
				t.Fatalf("re-encoding % x does not parse back: %v", raw, err)
			}
		}

		c := dgramCase{hdr: DgramHeader{Flags: flags, From: from, To: to, Ack: ack}, frames: []FrameView{
			{Seq: seq, Mseq: mseq, SentAt: sentAt, Payload: payload},
			{Seq: seq + 1, Mseq: mseq + 1, SentAt: -sentAt, Payload: payload[:len(payload)/2]},
		}}
		hdr, frames, err := parseAll(c.build())
		if err != nil {
			t.Fatalf("built datagram does not parse: %v", err)
		}
		if !sameDgram(c.hdr, c.frames, hdr, frames) {
			t.Fatalf("parsed %+v %+v, built from %+v %+v", hdr, frames, c.hdr, c.frames)
		}
	})
}
