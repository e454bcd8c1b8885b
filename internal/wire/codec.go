// Package wire is the deterministic binary wire format of the PREMA stack:
// a payload codec registry (Kind → Encode/Decode over encoding/binary
// primitives), self-delimiting message frames, and a substrate machine
// decorator (Wrap) that proves every layer survives serialization by
// encoding each Msg at Send and delivering a decoded copy.
//
// The format is fixed-width big-endian throughout — no varints, no
// reflection on the decode path — so encoding is canonical: equal values
// encode to equal bytes, and decode(encode(m)) == m for every registered
// payload. Decoders never panic on corrupt or truncated input; they report
// through Reader.Err. The codec spends no virtual time and uses no RNG, so
// a wire-wrapped run is byte-identical to a plain run (DESIGN.md §11).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer accumulates the canonical encoding: fixed-width big-endian
// primitives appended to a growing buffer.
type Writer struct {
	buf []byte
}

// Buf returns the bytes written so far.
func (w *Writer) Buf() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 writes a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 writes a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 writes a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I32 writes a big-endian two's-complement int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a big-endian two's-complement int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a uint32 length prefix followed by the bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Zeros appends n zero bytes (frame padding) in one step.
func (w *Writer) Zeros(n int) {
	l := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:l+n]
	clear(w.buf[l:])
}

// Reader consumes a canonical encoding, tracking one sticky error: after
// the first failure every read returns a zero value and the error is
// reported by Err. Corrupt or truncated input therefore surfaces as an
// error, never a panic — the property FuzzFrameRoundTrip locks in.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error (first one wins).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes, or nil after recording a truncation error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Fail(fmt.Errorf("wire: truncated input: need %d bytes, have %d", n, r.Remaining()))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a 64-bit int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one byte; any value other than 0 or 1 is a decode error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("wire: invalid bool byte"))
		return false
	}
}

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a uint32 length prefix and that many bytes. The returned
// slice is a copy, so decoded values never alias the frame buffer; zero
// length decodes to nil (the canonical empty slice, so round trips are
// exact).
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Count reads a uint32 element count for a collection whose elements each
// occupy at least min encoded bytes, rejecting counts the remaining input
// cannot possibly hold — the bound that keeps hostile length prefixes from
// forcing huge allocations.
func (r *Reader) Count(min int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n*min > r.Remaining() {
		r.Fail(fmt.Errorf("wire: implausible element count %d (%d bytes remain)", n, r.Remaining()))
		return 0
	}
	return n
}
