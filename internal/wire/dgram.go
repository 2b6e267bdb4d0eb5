package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Datagram format v3 — the coalesced framing the UDP transport speaks.
//
// One datagram carries zero or more frames for a single directed link,
// plus (optionally) a piggybacked cumulative ACK for the reverse
// direction. Every integer is a varint, so a typical lock-protocol frame
// (small seq and mseq, a microsecond timestamp, a few payload bytes)
// costs about a dozen bytes instead of v2's fixed 28-byte frame header.
//
//	header (4–22 bytes):
//	  version  byte     = 3
//	  flags    byte     bit0 FlagAck (ack present), bit1 FlagGob
//	  from     uvarint  sender node (≤ MaxUint32)
//	  to       uvarint  receiver node (≤ MaxUint32)
//	  ack      uvarint  cumulative ack for the to→from link; present
//	                    only when FlagAck is set
//	frames (0+), each:
//	  seq      uvarint  per-link FIFO sequence
//	  mseq     uvarint  per-message dedup id
//	  sentAt   varint   zigzag, sender's cluster clock (RTT sampling)
//	  paylen   uvarint
//	  payload  paylen bytes (codec bytes, or gob when FlagGob)
//
// A header with no frames is a standalone ACK datagram.
//
// The header's length depends on the ACK, which a sender learns only at
// flush time. A build buffer therefore starts with DgramHeadroom bytes of
// headroom (NewDgram); frames are appended after it, and SealDgram writes
// the header right-aligned into the headroom once the ACK is known, so
// packed frames never move.
const (
	DgramVersion = 3

	// DgramHeadroom is the longest header SealDgram can write: version,
	// flags, two 32-bit node ids and a 64-bit ack, all as varints.
	DgramHeadroom = 2 + 2*binary.MaxVarintLen32 + binary.MaxVarintLen64

	FlagAck = 1 << 0
	FlagGob = 1 << 1
)

// NewDgram resets buf to an empty datagram under construction: headroom
// reserved, no frames. Frames are appended with BeginFrame/EndFrame,
// and SealDgram finishes it.
func NewDgram(buf []byte) []byte {
	if cap(buf) < DgramHeadroom {
		buf = make([]byte, 0, 2048)
	}
	return buf[:DgramHeadroom]
}

// SealDgram writes h into the headroom of a datagram built on NewDgram,
// right-aligned against the first frame, and returns the finished
// datagram — a suffix of buf. h.Ack is written iff h.Flags has FlagAck.
func SealDgram(buf []byte, h DgramHeader) []byte {
	n := 2 + uvarintLen(uint64(h.From)) + uvarintLen(uint64(h.To))
	if h.HasAck() {
		n += uvarintLen(h.Ack)
	}
	start := DgramHeadroom - n
	hdr := buf[start:DgramHeadroom]
	hdr[0], hdr[1] = DgramVersion, h.Flags
	i := 2
	i += binary.PutUvarint(hdr[i:], uint64(h.From))
	i += binary.PutUvarint(hdr[i:], uint64(h.To))
	if h.HasAck() {
		binary.PutUvarint(hdr[i:], h.Ack)
	}
	return buf[start:]
}

// BeginFrame appends a frame header whose length is not yet known, for
// senders that encode the payload in place directly after it. It returns
// the offset of the one-byte length placeholder for EndFrame.
func BeginFrame(buf []byte, seq, mseq uint64, sentAt int64) ([]byte, int) {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, mseq)
	buf = binary.AppendVarint(buf, sentAt)
	return append(buf, 0), len(buf)
}

// EndFrame closes the frame BeginFrame opened at lenAt: everything after
// the placeholder is the payload. A payload of 128 bytes or more needs a
// wider length varint, so it shifts right to make room — rare on the
// lock protocols, whose messages are a few bytes.
func EndFrame(buf []byte, lenAt int) []byte {
	paylen := uint64(len(buf) - lenAt - 1)
	if paylen < 0x80 {
		buf[lenAt] = byte(paylen)
		return buf
	}
	w := uvarintLen(paylen)
	buf = append(buf, make([]byte, w-1)...)
	copy(buf[lenAt+w:], buf[lenAt+1:len(buf)-(w-1)])
	binary.PutUvarint(buf[lenAt:], paylen)
	return buf
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DgramHeader is the parsed header of one datagram.
type DgramHeader struct {
	Flags byte
	From  uint32
	To    uint32
	// Ack is the piggybacked cumulative ack; valid only when
	// Flags&FlagAck is set.
	Ack uint64
}

// HasAck reports whether the ACK field is valid.
func (h DgramHeader) HasAck() bool { return h.Flags&FlagAck != 0 }

// Gob reports whether the frame payloads are gob-encoded.
func (h DgramHeader) Gob() bool { return h.Flags&FlagGob != 0 }

// ParseDgram splits a received datagram into its header and the frame
// region (possibly empty for a standalone ACK).
func ParseDgram(pkt []byte) (DgramHeader, []byte, error) {
	if len(pkt) < 2 {
		return DgramHeader{}, nil, fmt.Errorf("wire: datagram too short (%d bytes)", len(pkt))
	}
	if pkt[0] != DgramVersion {
		return DgramHeader{}, nil, fmt.Errorf("wire: datagram version %d, want %d", pkt[0], DgramVersion)
	}
	h := DgramHeader{Flags: pkt[1]}
	from, i, ok := uvarintAt(pkt, 2)
	if !ok || from > math.MaxUint32 {
		return DgramHeader{}, nil, errors.New("wire: bad datagram sender")
	}
	to, i, ok := uvarintAt(pkt, i)
	if !ok || to > math.MaxUint32 {
		return DgramHeader{}, nil, errors.New("wire: bad datagram receiver")
	}
	h.From, h.To = uint32(from), uint32(to)
	if h.HasAck() {
		if h.Ack, i, ok = uvarintAt(pkt, i); !ok {
			return DgramHeader{}, nil, errors.New("wire: bad datagram ack")
		}
	}
	return h, pkt[i:], nil
}

// FrameView is one parsed frame; Payload aliases the datagram buffer.
type FrameView struct {
	Seq     uint64
	Mseq    uint64
	SentAt  int64
	Payload []byte
}

// NextFrame parses the first frame of body and returns it with the
// remaining bytes. Call with the region from ParseDgram and iterate
// until empty.
func NextFrame(body []byte) (FrameView, []byte, error) {
	var f FrameView
	var zz uint64
	var paylen uint64
	var ok bool
	i := 0
	if f.Seq, i, ok = uvarintAt(body, i); !ok {
		return FrameView{}, nil, errors.New("wire: truncated frame seq")
	}
	if f.Mseq, i, ok = uvarintAt(body, i); !ok {
		return FrameView{}, nil, errors.New("wire: truncated frame mseq")
	}
	if zz, i, ok = uvarintAt(body, i); !ok {
		return FrameView{}, nil, errors.New("wire: truncated frame sentAt")
	}
	f.SentAt = int64(zz >> 1)
	if zz&1 != 0 {
		f.SentAt = ^f.SentAt
	}
	if paylen, i, ok = uvarintAt(body, i); !ok {
		return FrameView{}, nil, errors.New("wire: truncated frame length")
	}
	if paylen > uint64(len(body)-i) {
		return FrameView{}, nil, fmt.Errorf("wire: frame payload truncated (%d of %d bytes)", len(body)-i, paylen)
	}
	end := i + int(paylen)
	f.Payload = body[i:end]
	return f, body[end:], nil
}

// uvarintAt decodes the uvarint at b[i:] and returns it with the offset
// just past it. Single-byte values, the common case, skip the loop.
func uvarintAt(b []byte, i int) (uint64, int, bool) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1, true
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, i, false
	}
	return v, i + n, true
}
