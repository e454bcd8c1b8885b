package wire

import (
	"fmt"
	"sync/atomic"

	"prema/internal/substrate"
)

// Machine is the serialization-enforcing loopback: a substrate decorator
// that encodes every outgoing Msg to its wire frame at Send and hands the
// transport a decoded copy. Nothing downstream — the network, the
// receiver, a fault injector duplicating deliveries — can ever alias the
// sender's memory, which is the property a real distributed transport
// needs and a shared-memory Msg.Data can silently violate. The copy is
// decoded into a recycled shell (the Msg a previous Send gave up), so once
// warm the loopback allocates only what a payload's decoder does.
//
// Wrap composes with the other decorators; the canonical chain is
// trace.Wrap(faulty.Wrap(wire.Wrap(backend))) — wire innermost, so the
// fault injector and tracer observe exactly the (decoded) messages they
// would see on a plain run. The codec charges zero virtual time and uses
// no RNG, so a wrapped run is byte-identical to a plain one; the only cost
// is host CPU. Along the way every frame audits the modeled Msg.Size
// against the real encoding (SizeDrift, surfaced as the
// wire_size_drift_total metrics counter).
type Machine struct {
	substrate.Machine

	frames    atomic.Uint64 // frames encoded (= wrapped sends)
	sizeDrift atomic.Uint64 // sends whose encoding exceeded modeled Size
}

// Wrap decorates m with the serialization loopback.
func Wrap(m substrate.Machine) *Machine { return &Machine{Machine: m} }

// Unwrap returns the decorated machine (substrate.Find walks the chain).
func (w *Machine) Unwrap() substrate.Machine { return w.Machine }

// Frames returns the number of messages that crossed the wire codec.
func (w *Machine) Frames() uint64 { return w.frames.Load() }

// SizeDrift returns the number of sends whose encoded payload exceeded the
// modeled Msg.Size — messages whose virtual transfer price undercounts the
// real byte volume. A zero-drift run means the cost model is honest.
func (w *Machine) SizeDrift() uint64 { return w.sizeDrift.Load() }

// Spawn implements substrate.Machine, interposing the codec endpoint.
func (w *Machine) Spawn(name string, body func(substrate.Endpoint)) {
	w.Machine.Spawn(name, func(ep substrate.Endpoint) {
		body(&Endpoint{Endpoint: ep, m: w})
	})
}

// Endpoint is the per-processor codec interposer: the inner endpoint with
// Send replaced. The codec has no stake in time, so AdvancePolled is the
// inner endpoint's, promoted: it elides or declines as the one beneath does.
type Endpoint struct {
	substrate.Endpoint
	m     *Machine
	enc   Writer         // per-endpoint scratch buffer, reused across sends
	dec   Reader         // per-endpoint decoder, reused across sends
	spare *substrate.Msg // shell the next Send decodes into
}

// Send implements substrate.Endpoint: m is encoded to its wire frame,
// decoded back into the spare shell, and the copy — never m itself — is
// handed to the transport. m then becomes the next spare: the sender gave it
// up at Send (substrate.Msg's ownership rule), so it is zeroed and kept,
// and a warm endpoint allocates no Msg. Encoding panics on an unregistered
// payload type; a frame this endpoint produced failing to decode is an
// invariant violation and also panics (corrupt *external* input returns
// errors from DecodeMsg; here both ends are this process).
func (e *Endpoint) Send(m *substrate.Msg, cat substrate.Category) {
	e.enc.Reset()
	plen := AppendMsg(&e.enc, m)
	dm := e.spare
	if dm == nil {
		dm = new(substrate.Msg)
	}
	if err := decodeMsg(&e.dec, e.enc.Buf(), dm); err != nil {
		panic(fmt.Sprintf("wire: frame round trip failed for %T payload: %v", m.Data, err))
	}
	e.m.frames.Add(1)
	if plen > m.Size {
		e.m.sizeDrift.Add(1)
	}
	*m = substrate.Msg{}
	e.spare = m
	e.Endpoint.Send(dm, cat)
}
