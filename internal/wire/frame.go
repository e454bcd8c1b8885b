package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"prema/internal/substrate"
)

// Frame layout (all fixed-width big-endian):
//
//	magic   u16  0x5052 "PR"
//	version u8   1
//	src     i32  sending processor rank
//	dst     i32  destination processor rank
//	kind    i32  substrate.Msg.Kind (dmcs handler id, or -1 for protocol acks)
//	tag     i32  substrate.Msg.Tag (TagApp / TagSystem)
//	size    i32  modeled payload size in bytes (prices virtual transfer time)
//	seq     u64  reliable-mode sequence number (0 when unsequenced; an ack's
//	             cumulative sequence number)
//	sentAt  i64  substrate.Msg.SentAt (stamped by the transport, 0 pre-send)
//	plen    u32  encoded payload length
//	payload plen bytes: one EncodeAny (kind u16 + body)
//	padding max(0, size-plen) zero bytes
//
// The padding makes the on-wire payload occupy max(plen, size) bytes, so a
// frame's length reflects the *modeled* message volume whenever the model
// is honest — internal/dist's TCP transport then carries exactly the byte
// volumes the simulator priced. plen > size is modeled-size drift; EncodeMsg
// reports it and wire.Machine counts it (wire_size_drift_total).
// ArrivedAt is deliberately absent: the receiving transport stamps it.
const (
	frameMagic   = 0x5052
	frameVersion = 1
	headerBytes  = 2 + 1 + 5*4 + 8 + 8 + 4
)

// DefaultMaxFrame is the frame length limit ReadFrame applies when the
// caller passes max <= 0. It comfortably fits every frame the stack
// produces (the largest shipped payloads are migration envelopes a few
// hundred KiB under pathological packing) while keeping a hostile peer's
// declared length from forcing a large allocation.
const DefaultMaxFrame = 1 << 20

// FrameLen computes a frame's total length (header + payload + padding)
// from its fixed-width header, without touching the payload. hdr must hold
// at least headerBytes bytes of a validated-magic frame; the length is
// derived from the size and plen fields exactly as AppendMsg lays them out.
func frameLen(hdr []byte) int {
	size := int(int32(uint32(hdr[19])<<24 | uint32(hdr[20])<<16 | uint32(hdr[21])<<8 | uint32(hdr[22])))
	plen := int(uint32(hdr[39])<<24 | uint32(hdr[40])<<16 | uint32(hdr[41])<<8 | uint32(hdr[42]))
	pad := size - plen
	if pad < 0 {
		pad = 0
	}
	return headerBytes + plen + pad
}

// ReadFrame reads exactly one self-delimiting frame from r and returns its
// bytes, ready for DecodeMsg. It validates the magic and version and
// enforces a maximum total frame length (max <= 0 selects DefaultMaxFrame)
// *before* allocating the payload buffer, so a malicious or corrupt peer
// can neither panic the reader nor force an allocation larger than the
// limit. io.EOF is returned untouched when the stream ends cleanly between
// frames; a stream ending mid-frame surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:2]); err != nil {
		return nil, err
	}
	if magic := uint16(hdr[0])<<8 | uint16(hdr[1]); magic != frameMagic {
		return nil, fmt.Errorf("wire: bad frame magic %#04x", magic)
	}
	if _, err := io.ReadFull(r, hdr[2:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if v := hdr[2]; v != frameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d", v)
	}
	total := frameLen(hdr[:])
	if total < headerBytes || total > max {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit %d", total, max)
	}
	buf := make([]byte, total)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerBytes:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// AppendMsg encodes m as one self-delimiting frame into w and returns the
// encoded payload length (before padding), for size-drift auditing. The
// fixed-width header is written in place after one grow.
func AppendMsg(w *Writer, m *substrate.Msg) int {
	start := len(w.buf)
	w.buf = slices.Grow(w.buf, headerBytes)[:start+headerBytes]
	h := w.buf[start:]
	be := binary.BigEndian
	be.PutUint16(h, frameMagic)
	h[2] = frameVersion
	be.PutUint32(h[3:], uint32(int32(m.Src)))
	be.PutUint32(h[7:], uint32(int32(m.Dst)))
	be.PutUint32(h[11:], uint32(int32(m.Kind)))
	be.PutUint32(h[15:], uint32(int32(m.Tag)))
	be.PutUint32(h[19:], uint32(int32(m.Size)))
	be.PutUint64(h[23:], m.Seq)
	be.PutUint64(h[31:], uint64(m.SentAt))
	EncodeAny(w, m.Data)
	plen := len(w.buf) - start - headerBytes
	be.PutUint32(w.buf[start+39:], uint32(plen)) // the payload length, known now
	if pad := m.Size - plen; pad > 0 {
		w.Zeros(pad)
	}
	return plen
}

// EncodeMsg encodes m as one frame, returning the frame bytes and the
// encoded payload length (before padding).
func EncodeMsg(m *substrate.Msg) ([]byte, int) {
	var w Writer
	plen := AppendMsg(&w, m)
	return w.Buf(), plen
}

// DecodeMsg parses one frame into a fresh Msg sharing no memory with the
// sender's value. Corrupt, truncated, or trailing-garbage input returns an
// error; it never panics. ArrivedAt is left zero for the transport to
// stamp on delivery.
func DecodeMsg(b []byte) (*substrate.Msg, error) {
	m := new(substrate.Msg)
	if err := decodeMsg(new(Reader), b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeMsg is DecodeMsg reading through r, which it resets to b, into m,
// which it zeroes first: a caller that decodes many frames keeps one Reader
// and recycles its Msg shells instead of allocating them per frame. On error
// m holds a partial decode. The fixed-width header is read straight from b
// after one length check; the payload goes through r.
func decodeMsg(r *Reader, b []byte, m *substrate.Msg) error {
	*m = substrate.Msg{}
	if len(b) >= 2 {
		if magic := binary.BigEndian.Uint16(b); magic != frameMagic {
			return fmt.Errorf("wire: bad frame magic %#04x", magic)
		}
	}
	if len(b) >= 3 && b[2] != frameVersion {
		return fmt.Errorf("wire: unsupported frame version %d", b[2])
	}
	if len(b) < headerBytes {
		return fmt.Errorf("wire: truncated frame header: %d of %d bytes", len(b), headerBytes)
	}
	h := b[3:headerBytes]
	m.Src = int(int32(binary.BigEndian.Uint32(h[0:])))
	m.Dst = int(int32(binary.BigEndian.Uint32(h[4:])))
	m.Kind = int(int32(binary.BigEndian.Uint32(h[8:])))
	m.Tag = int(int32(binary.BigEndian.Uint32(h[12:])))
	m.Size = int(int32(binary.BigEndian.Uint32(h[16:])))
	m.Seq = binary.BigEndian.Uint64(h[20:])
	m.SentAt = substrate.Time(binary.BigEndian.Uint64(h[28:]))
	plen := int(binary.BigEndian.Uint32(h[36:]))
	*r = Reader{buf: b, off: headerBytes}
	if plen > r.Remaining() {
		return fmt.Errorf("wire: payload length %d exceeds frame (%d bytes remain)", plen, r.Remaining())
	}
	payloadEnd := headerBytes + plen
	m.Data = DecodeAny(r)
	if r.Err() != nil {
		return r.Err()
	}
	if got := len(b) - r.Remaining(); got != payloadEnd {
		return fmt.Errorf("wire: payload codec consumed %d bytes, frame declared %d", got-headerBytes, plen)
	}
	if pad := m.Size - plen; pad > 0 {
		z := r.take(pad)
		if r.Err() != nil {
			return r.Err()
		}
		if !allZero(z) {
			return fmt.Errorf("wire: nonzero padding byte")
		}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame", r.Remaining())
	}
	return nil
}

// allZero reports whether b holds only zero bytes, comparing a word at a
// time.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, z := range b {
		if z != 0 {
			return false
		}
	}
	return true
}
