package wire

import (
	"fmt"
	"io"

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
// encoded payload length (before padding), for size-drift auditing.
func AppendMsg(w *Writer, m *substrate.Msg) int {
	w.U16(frameMagic)
	w.U8(frameVersion)
	w.I32(int32(m.Src))
	w.I32(int32(m.Dst))
	w.I32(int32(m.Kind))
	w.I32(int32(m.Tag))
	w.I32(int32(m.Size))
	w.U64(m.Seq)
	w.I64(int64(m.SentAt))
	lenAt := w.Len()
	w.U32(0) // payload length, patched below
	EncodeAny(w, m.Data)
	plen := w.Len() - lenAt - 4
	buf := w.Buf()
	buf[lenAt] = byte(plen >> 24)
	buf[lenAt+1] = byte(plen >> 16)
	buf[lenAt+2] = byte(plen >> 8)
	buf[lenAt+3] = byte(plen)
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
// m holds a partial decode.
func decodeMsg(r *Reader, b []byte, m *substrate.Msg) error {
	*r = Reader{buf: b}
	*m = substrate.Msg{}
	if magic := r.U16(); r.Err() == nil && magic != frameMagic {
		return fmt.Errorf("wire: bad frame magic %#04x", magic)
	}
	if v := r.U8(); r.Err() == nil && v != frameVersion {
		return fmt.Errorf("wire: unsupported frame version %d", v)
	}
	m.Src = int(r.I32())
	m.Dst = int(r.I32())
	m.Kind = int(r.I32())
	m.Tag = int(r.I32())
	m.Size = int(r.I32())
	m.Seq = r.U64()
	m.SentAt = substrate.Time(r.I64())
	plen := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
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
		for _, z := range r.take(pad) {
			if z != 0 {
				return fmt.Errorf("wire: nonzero padding byte")
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame", r.Remaining())
	}
	return nil
}
