package mol

import (
	"sort"

	"prema/internal/wire"
)

// Wire codecs for every payload the mobile object layer (and the ilb layer,
// which sends exclusively through it) puts on the transport: envelopes,
// migrations (the full Object, reorder state included, plus the packed work
// units the scheduler attaches as extra) and location-cache updates.
// Application object *data* serializes
// through the registry too — builtin kinds cover int/bool/float64/[]byte,
// and RegisterDataCodec adds marshal/unmarshal hooks for custom types.

func encodeMP(w *wire.Writer, mp MobilePtr) {
	w.Int(mp.Home)
	w.Int(mp.Index)
}

func decodeMP(r *wire.Reader) MobilePtr {
	return MobilePtr{Home: r.Int(), Index: r.Int()}
}

// encodeEnvelope writes an envelope compactly: every field but the sequence
// number and the weight is a processor ID, an object index, a handler slot,
// a byte count, or a hop count, all comfortably inside i32. The fixed part
// costs 46 bytes minimum (nil payload) — under the modeled envelopeHeader
// of 48 — and an int payload lands exactly at envelopeHeader + 8, so the
// wire audit sees zero drift on envelope traffic.
func encodeEnvelope(w *wire.Writer, e *Envelope) {
	w.I32(int32(e.MP.Home))
	w.I32(int32(e.MP.Index))
	w.I32(int32(e.Handler))
	wire.EncodeAny(w, e.Data)
	w.I32(int32(e.Size))
	w.I32(int32(e.Tag))
	w.I32(int32(e.Origin))
	w.U64(e.Seq)
	w.I32(int32(e.Hops))
	w.F64(e.Weight)
}

func decodeEnvelope(r *wire.Reader) *Envelope {
	e := &Envelope{MP: MobilePtr{Home: int(r.I32()), Index: int(r.I32())}}
	e.Handler = HandlerID(r.I32())
	e.Data = wire.DecodeAny(r)
	e.Size = int(r.I32())
	e.Tag = int(r.I32())
	e.Origin = int(r.I32())
	e.Seq = r.U64()
	e.Hops = int(r.I32())
	e.Weight = r.F64()
	return e
}

// encodeObject writes a mobile object including its reorder state. Map
// iteration order is not deterministic, so both maps are emitted in sorted
// key order — equal objects encode to equal bytes.
func encodeObject(w *wire.Writer, obj *Object) {
	encodeMP(w, obj.MP)
	wire.EncodeAny(w, obj.Data)
	w.Int(obj.Size)
	w.F64(obj.Weight)

	origins := make([]int, 0, len(obj.expect))
	for o := range obj.expect {
		origins = append(origins, o)
	}
	sort.Ints(origins)
	w.U32(uint32(len(origins)))
	for _, o := range origins {
		w.Int(o)
		w.U64(obj.expect[o])
	}

	keys := make([]holdKey, 0, len(obj.hold))
	for k := range obj.hold {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].seq < keys[j].seq
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k.origin)
		w.U64(k.seq)
		encodeEnvelope(w, obj.hold[k])
	}
}

func decodeObject(r *wire.Reader) *Object {
	obj := &Object{MP: decodeMP(r)}
	obj.Data = wire.DecodeAny(r)
	obj.Size = r.Int()
	obj.Weight = r.F64()
	n := r.Count(16) // origin i64 + watermark u64
	obj.expect = make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		o := r.Int()
		obj.expect[o] = r.U64()
	}
	h := r.Count(16 + 2) // key + at least an envelope's nil data kind
	obj.hold = make(map[holdKey]*Envelope, h)
	for i := 0; i < h; i++ {
		k := holdKey{origin: r.Int(), seq: r.U64()}
		obj.hold[k] = decodeEnvelope(r)
	}
	return obj
}

func init() {
	wire.Register(wire.KindMolEnvelope, &Envelope{},
		func(w *wire.Writer, v any) { encodeEnvelope(w, v.(*Envelope)) },
		func(r *wire.Reader) any { return decodeEnvelope(r) })

	wire.Register(wire.KindMolEnvelopeSlice, []*Envelope(nil),
		func(w *wire.Writer, v any) {
			s := v.([]*Envelope)
			w.U32(uint32(len(s)))
			for _, e := range s {
				encodeEnvelope(w, e)
			}
		},
		func(r *wire.Reader) any {
			n := r.Count(2)
			if n == 0 {
				return []*Envelope(nil) // canonical empty slice, exact round trip
			}
			s := make([]*Envelope, n)
			for i := range s {
				s[i] = decodeEnvelope(r)
			}
			return s
		})

	wire.Register(wire.KindMolMigration,
		&migration{obj: &Object{expect: map[int]uint64{}, hold: map[holdKey]*Envelope{}}},
		func(w *wire.Writer, v any) {
			m := v.(*migration)
			encodeObject(w, m.obj)
			wire.EncodeAny(w, m.extra)
		},
		func(r *wire.Reader) any {
			return &migration{obj: decodeObject(r), extra: wire.DecodeAny(r)}
		})

	// Location updates are the layer's highest-volume control traffic and
	// carry a modeled Size of 16 bytes, so they get the compact encoding:
	// home, index, and location are a processor ID and an object index,
	// which i32 holds with room to spare (2 + 3*4 = 14 bytes on the wire).
	wire.Register(wire.KindMolLocation, &locationUpdate{},
		func(w *wire.Writer, v any) {
			u := v.(*locationUpdate)
			w.I32(int32(u.mp.Home))
			w.I32(int32(u.mp.Index))
			w.I32(int32(u.loc))
		},
		func(r *wire.Reader) any {
			return &locationUpdate{
				mp:  MobilePtr{Home: int(r.I32()), Index: int(r.I32())},
				loc: int(r.I32()),
			}
		})
}

// RegisterDataCodec installs a wire codec for an application mobile-object
// data type: sample fixes the concrete type, and marshal/unmarshal map it
// to and from bytes. Objects whose Data is of that type then serialize for
// real when a migration or checkpoint restore crosses a
// wire-wrapped machine (builtin kinds already cover int, bool, float64 and
// []byte). kind must be at or above wire.KindUser — the range reserved for
// applications — and, like Layer.Register, calls must happen before any
// traffic flows (package init is the natural place).
func RegisterDataCodec(kind wire.Kind, sample any, marshal func(data any) []byte, unmarshal func(b []byte) any) {
	if kind < wire.KindUser {
		panic("mol: RegisterDataCodec kinds start at wire.KindUser")
	}
	wire.Register(kind, sample,
		func(w *wire.Writer, v any) { w.Bytes(marshal(v)) },
		func(r *wire.Reader) any {
			b := r.Bytes()
			if r.Err() != nil {
				return nil
			}
			return unmarshal(b)
		})
}
