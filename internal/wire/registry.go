package wire

import (
	"fmt"
	"reflect"
	"sort"
)

// Kind identifies a payload codec on the wire. Every payload type any layer
// hands to substrate.Msg.Data has exactly one Kind; the constants below are
// the single allocation authority, grouped in per-layer ranges so the
// depguard test in wire_test.go can keep the registry total. Application
// object data types register in the KindUser range (mol.RegisterDataCodec).
type Kind uint16

const (
	// Builtins (registered by this package).
	KindNil      Kind = 0 // untyped nil payload
	KindInt      Kind = 1
	KindBool     Kind = 2
	KindFloat64  Kind = 3
	KindBytes    Kind = 4 // []byte
	KindAnySlice Kind = 5 // []any

	// dmcs: 16–31.
	KindDmcsAck Kind = 16 // reliable-mode cumulative ack

	// mol (the ilb layer sends exclusively through mol): 32–63. 36 and 37
	// were the retired remote-read request and reply; they stay unassigned.
	KindMolEnvelope      Kind = 32
	KindMolEnvelopeSlice Kind = 33 // []*mol.Envelope (migration extra: packed work units)
	KindMolMigration     Kind = 34
	KindMolLocation      Kind = 35

	// recov: 64–79.
	KindRecovCheckpoint Kind = 64 // restore message (also carries replay log)

	// policy: 80–95.
	KindPolicySteal Kind = 80
	KindPolicyAd    Kind = 81
	KindPolicyClaim Kind = 82

	// dist (the multi-process TCP backend's session control plane): 112–127.
	// 119 was the retired driver-result report; it stays unassigned.
	KindDistHello     Kind = 112
	KindDistRoster    Kind = 113
	KindDistPeerHello Kind = 114
	KindDistReady     Kind = 115
	KindDistStart     Kind = 116
	KindDistDone      Kind = 117
	KindDistFin       Kind = 118

	// KindUser is the first Kind available to application payload types
	// (mobile-object data registered via mol.RegisterDataCodec).
	KindUser Kind = 0x1000
)

// EncodeFunc serializes a payload value of the codec's registered type.
type EncodeFunc func(w *Writer, v any)

// DecodeFunc reconstructs a payload value; it must return the exact static
// type that was registered (receivers type-assert on it) and report corrupt
// input through r.Fail, never by panicking.
type DecodeFunc func(r *Reader) any

type codec struct {
	kind   Kind
	typ    reflect.Type
	sample any
	enc    EncodeFunc
	dec    DecodeFunc
}

var (
	byKind = map[Kind]*codec{}
	byType = map[reflect.Type]*codec{}
)

// Register installs a codec for sample's dynamic type under k. Sends of
// that type encode with enc; frames carrying k decode with dec. Register
// panics on a duplicate Kind or type — each payload type has one canonical
// encoding. It must be called from package init (the registry is read-only
// afterwards and is consulted concurrently without locks).
func Register(k Kind, sample any, enc EncodeFunc, dec DecodeFunc) {
	if sample == nil {
		panic("wire: Register needs a non-nil sample value (nil payloads are built in)")
	}
	t := reflect.TypeOf(sample)
	if _, dup := byKind[k]; dup {
		panic(fmt.Sprintf("wire: kind %d registered twice (%v)", k, t))
	}
	if c, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice (kinds %d, %d)", t, c.kind, k))
	}
	c := &codec{kind: k, typ: t, sample: sample, enc: enc, dec: dec}
	byKind[k] = c
	byType[t] = c
}

// RegisteredKinds returns every registered Kind in ascending order
// (including KindNil), for the registry-totality test.
func RegisteredKinds() []Kind {
	out := []Kind{KindNil}
	for k := range byKind {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Samples returns one sample value per registered codec, ordered by Kind —
// the seed material for round-trip and fuzz corpora.
func Samples() []any {
	ks := RegisteredKinds()
	out := make([]any, 0, len(ks))
	for _, k := range ks {
		if k == KindNil {
			out = append(out, nil)
			continue
		}
		out = append(out, byKind[k].sample)
	}
	return out
}

// EncodeAny writes v as a self-delimiting (kind, body) pair. It panics if
// v's type has no registered codec — an unregistered payload reaching a
// wire-wrapped Send is a programming error the decorator must not mask.
func EncodeAny(w *Writer, v any) {
	if v == nil {
		w.U16(uint16(KindNil))
		return
	}
	c, ok := byType[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("wire: no codec registered for payload type %T", v))
	}
	w.U16(uint16(c.kind))
	c.enc(w, v)
}

// DecodeAny reads one (kind, body) pair written by EncodeAny. Unknown kinds
// and malformed bodies surface through r.Err.
func DecodeAny(r *Reader) any {
	k := Kind(r.U16())
	if r.Err() != nil {
		return nil
	}
	if k == KindNil {
		return nil
	}
	c, ok := byKind[k]
	if !ok {
		r.Fail(fmt.Errorf("wire: unknown payload kind %d", k))
		return nil
	}
	v := c.dec(r)
	if r.Err() != nil {
		return nil
	}
	return v
}

func init() {
	Register(KindInt, int(0),
		func(w *Writer, v any) { w.Int(v.(int)) },
		func(r *Reader) any { return r.Int() })
	Register(KindBool, false,
		func(w *Writer, v any) { w.Bool(v.(bool)) },
		func(r *Reader) any { return r.Bool() })
	Register(KindFloat64, float64(0),
		func(w *Writer, v any) { w.F64(v.(float64)) },
		func(r *Reader) any { return r.F64() })
	Register(KindBytes, []byte(nil),
		func(w *Writer, v any) { w.Bytes(v.([]byte)) },
		func(r *Reader) any { return r.Bytes() })
	Register(KindAnySlice, []any(nil),
		func(w *Writer, v any) {
			s := v.([]any)
			w.U32(uint32(len(s)))
			for _, e := range s {
				EncodeAny(w, e)
			}
		},
		func(r *Reader) any {
			n := r.Count(2) // each element is at least a kind u16
			if n == 0 {
				return []any(nil) // canonical empty slice, exact round trip
			}
			s := make([]any, n)
			for i := range s {
				s[i] = DecodeAny(r)
			}
			return s
		})
}
