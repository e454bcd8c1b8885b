package mol

import (
	"reflect"
	"testing"

	"prema/internal/wire"
)

// encDec pushes v through the registry and returns the reconstructed value.
func encDec(t *testing.T, v any) any {
	t.Helper()
	var w wire.Writer
	wire.EncodeAny(&w, v)
	r := wire.NewReader(w.Buf())
	out := wire.DecodeAny(r)
	if r.Err() != nil {
		t.Fatalf("decode %T: %v", v, r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode %T left %d bytes", v, r.Remaining())
	}
	return out
}

// TestEnvelopeRoundTrip exercises a fully populated envelope, including a
// typed payload, through the compact codec.
func TestEnvelopeRoundTrip(t *testing.T) {
	e := &Envelope{
		MP:      MobilePtr{Home: 3, Index: 41},
		Handler: 7,
		Data:    []byte{9, 8, 7},
		Size:    3,
		Tag:     1,
		Origin:  12,
		Seq:     900100,
		Hops:    4,
		Weight:  2.5,
	}
	got := encDec(t, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("envelope diverged:\n got %#v\nwant %#v", got, e)
	}
}

// TestMigrationRoundTrip is the hard case: a migration carries the whole
// Object — reorder watermarks and held envelopes included — plus the packed
// work units the scheduler attaches as extra. Map state must survive the
// sorted canonical encoding.
func TestMigrationRoundTrip(t *testing.T) {
	obj := &Object{
		MP:     MobilePtr{Home: 1, Index: 5},
		Data:   42,
		Size:   64,
		Weight: 3.25,
		expect: map[int]uint64{0: 7, 3: 2, 9: 11},
		hold: map[holdKey]*Envelope{
			{origin: 3, seq: 4}: {MP: MobilePtr{Home: 1, Index: 5}, Handler: 2, Data: 10, Size: 8, Tag: 0, Origin: 3, Seq: 4, Weight: 1},
			{origin: 0, seq: 9}: {MP: MobilePtr{Home: 1, Index: 5}, Handler: 2, Data: nil, Size: 0, Tag: 1, Origin: 0, Seq: 9, Hops: 2},
		},
	}
	extra := []*Envelope{
		{MP: MobilePtr{Home: 1, Index: 5}, Handler: 3, Data: 1.5, Size: 8, Origin: 2, Seq: 1},
		{MP: MobilePtr{Home: 1, Index: 5}, Handler: 3, Data: true, Size: 1, Origin: 2, Seq: 2},
	}
	m := &migration{obj: obj, extra: extra}
	got := encDec(t, m).(*migration)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("migration diverged:\n got obj %#v extra %#v\nwant obj %#v extra %#v",
			got.obj, got.extra, m.obj, m.extra)
	}

	// An empty-state object must round-trip too (fresh objects migrate
	// before any reordering happens).
	m2 := &migration{obj: &Object{MP: MobilePtr{Home: 0, Index: 1}, expect: map[int]uint64{}, hold: map[holdKey]*Envelope{}}}
	got2 := encDec(t, m2).(*migration)
	if !reflect.DeepEqual(got2, m2) {
		t.Fatalf("empty migration diverged: %#v vs %#v", got2.obj, m2.obj)
	}
}

// TestControlPayloadRoundTrips covers the layer's small control messages.
func TestControlPayloadRoundTrips(t *testing.T) {
	for _, v := range []any{
		&locationUpdate{mp: MobilePtr{Home: 2, Index: 17}, loc: 5},
		[]*Envelope(nil),
	} {
		got := encDec(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%T diverged:\n got %#v\nwant %#v", v, got, v)
		}
	}
}

// TestEnvelopeFitsModeledHeader guards satellite #1's fix: the compact
// envelope and location encodings must stay inside the sizes the cost model
// charges for them, or every wire-wrapped run reports size drift.
func TestEnvelopeFitsModeledHeader(t *testing.T) {
	var w wire.Writer
	wire.EncodeAny(&w, &Envelope{MP: MobilePtr{Home: 1, Index: 2}, Origin: 3, Seq: 9})
	if n := len(w.Buf()); n > envelopeHeader {
		t.Fatalf("nil-payload envelope encodes to %d bytes, modeled header is %d", n, envelopeHeader)
	}
	w.Reset()
	wire.EncodeAny(&w, &Envelope{MP: MobilePtr{Home: 1, Index: 2}, Data: 7, Size: 8, Origin: 3, Seq: 9})
	if n := len(w.Buf()); n > envelopeHeader+8 {
		t.Fatalf("int-payload envelope encodes to %d bytes, modeled size is %d", n, envelopeHeader+8)
	}
	w.Reset()
	wire.EncodeAny(&w, &locationUpdate{mp: MobilePtr{Home: 1, Index: 2}, loc: 3})
	if n := len(w.Buf()); n > 16 {
		t.Fatalf("location update encodes to %d bytes, modeled size is 16", n)
	}
}

// TestRegisterDataCodecGuard: application data kinds live at or above
// KindUser; the mol ranges are reserved.
func TestRegisterDataCodecGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterDataCodec accepted a reserved kind")
		}
	}()
	RegisterDataCodec(wire.KindMolEnvelope, struct{ X int }{}, nil, nil)
}

// TestRegisterDataCodec round-trips a custom application data type through
// the marshal/unmarshal hooks, the path object registration uses for real
// serialization of user payloads.
func TestRegisterDataCodec(t *testing.T) {
	type meshCell struct{ A, B byte }
	RegisterDataCodec(wire.KindUser+100, meshCell{},
		func(data any) []byte {
			c := data.(meshCell)
			return []byte{c.A, c.B}
		},
		func(b []byte) any {
			return meshCell{A: b[0], B: b[1]}
		})
	v := meshCell{A: 4, B: 9}
	if got := encDec(t, v); got != v {
		t.Fatalf("custom data codec diverged: %#v vs %#v", got, v)
	}
}
