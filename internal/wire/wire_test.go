// Package wire_test exercises the codec registry and the serialization
// loopback from outside, importing every message-producing layer so each
// layer's init-time codec registrations are in effect — exactly the set a
// wire-wrapped run sees.
package wire_test

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/wire"

	// Each stack layer registers its payload codecs at init; the blank
	// imports make this test's registry identical to a full run's.
	_ "prema/internal/dist"
	_ "prema/internal/dmcs"
	_ "prema/internal/mol"
	_ "prema/internal/policy"
	_ "prema/internal/recov"
)

// TestRegistryTotality is the depguard for the wire format: every payload
// kind any layer sends must be registered, and no kind may appear that this
// list does not know about. Adding a payload type to a layer without
// extending this list (and the Kind ranges in registry.go) fails here.
func TestRegistryTotality(t *testing.T) {
	want := []wire.Kind{
		wire.KindNil,
		wire.KindInt,
		wire.KindBool,
		wire.KindFloat64,
		wire.KindBytes,
		wire.KindAnySlice,
		wire.KindDmcsAck,
		wire.KindMolEnvelope,
		wire.KindMolEnvelopeSlice,
		wire.KindMolMigration,
		wire.KindMolLocation,
		wire.KindRecovCheckpoint,
		wire.KindPolicySteal,
		wire.KindPolicyAd,
		wire.KindPolicyClaim,
		wire.KindDistHello,
		wire.KindDistRoster,
		wire.KindDistPeerHello,
		wire.KindDistReady,
		wire.KindDistStart,
		wire.KindDistDone,
		wire.KindDistFin,
	}
	got := wire.RegisteredKinds()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered kinds = %v, want %v", got, want)
	}
}

// TestFrameRoundTrip: decode(encode(m)) must reproduce m exactly — header
// fields and payload — for every registered payload kind, with and without
// modeled-size padding. ArrivedAt is transport-stamped and stays zero.
func TestFrameRoundTrip(t *testing.T) {
	for i, s := range wire.Samples() {
		m := &substrate.Msg{
			Src: i, Dst: i + 1, Kind: i - 2, Tag: i % 3,
			Data: s, Seq: uint64(i * 7), SentAt: substrate.Time(i * 1000),
		}
		_, plen := wire.EncodeMsg(m)
		for _, size := range []int{plen, plen + 13} { // exact fit, then padded
			m.Size = size
			frame, got := wire.EncodeMsg(m)
			if got != plen {
				t.Fatalf("%T: plen %d then %d", s, plen, got)
			}
			if want := 43 + max(plen, size); len(frame) != want {
				t.Fatalf("%T size=%d: frame %d bytes, want %d", s, size, len(frame), want)
			}
			dm, err := wire.DecodeMsg(frame)
			if err != nil {
				t.Fatalf("%T size=%d: decode: %v", s, size, err)
			}
			if !reflect.DeepEqual(dm, m) {
				t.Fatalf("%T size=%d: round trip diverged:\n got %#v\nwant %#v", s, size, dm, m)
			}
		}
	}
}

// TestDecodeRejects: corrupt frames must error, never panic, and never
// return a message.
func TestDecodeRejects(t *testing.T) {
	m := &substrate.Msg{Src: 1, Dst: 2, Tag: 1, Data: 42, Size: 10}
	frame, _ := wire.EncodeMsg(m)

	// Truncation at every prefix length.
	for n := 0; n < len(frame); n++ {
		if dm, err := wire.DecodeMsg(frame[:n]); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) decoded: %#v", n, len(frame), dm)
		}
	}

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), frame...)
		mutate(b)
		if dm, err := wire.DecodeMsg(b); err == nil {
			t.Fatalf("%s: decoded %#v", name, dm)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 0xFF })
	corrupt("bad version", func(b []byte) { b[2] = 99 })
	corrupt("unknown payload kind", func(b []byte) { b[43], b[44] = 0xBE, 0xEF })

	// Padding bytes must be zero: corrupt the last byte of a frame whose
	// modeled size exceeds its encoding.
	padded, plen := wire.EncodeMsg(&substrate.Msg{Src: 1, Dst: 2, Data: 42, Size: 64})
	if plen >= 64 {
		t.Fatalf("int payload encoded to %d bytes; padded-frame fixture needs Size > plen", plen)
	}
	padded[len(padded)-1] = 7
	if dm, err := wire.DecodeMsg(padded); err == nil {
		t.Fatalf("nonzero padding accepted: %#v", dm)
	}

	if dm, err := wire.DecodeMsg(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatalf("trailing byte accepted: %#v", dm)
	}

	// A declared payload length larger than the frame must be rejected
	// before any allocation happens.
	b := append([]byte(nil), frame...)
	b[39], b[40], b[41], b[42] = 0x7F, 0xFF, 0xFF, 0xFF
	if dm, err := wire.DecodeMsg(b); err == nil {
		t.Fatalf("oversized plen accepted: %#v", dm)
	}
}

// TestWrapLoopback: a wire-wrapped machine delivers equal but non-aliased
// payloads, counts frames, and audits modeled sizes.
func TestWrapLoopback(t *testing.T) {
	m := wire.Wrap(sim.NewMachine(sim.Config{Seed: 1}))
	sent := []byte{1, 2, 3, 4}
	var got []byte
	m.Spawn("sender", func(ep substrate.Endpoint) {
		ep.Send(&substrate.Msg{Dst: 1, Tag: 1, Data: sent, Size: 16}, substrate.CatMessaging)
		// The loopback decoded a copy at Send, so mutating the sender's
		// buffer afterwards must not reach the receiver.
		sent[0] = 99
		ep.Send(&substrate.Msg{Dst: 1, Tag: 2, Data: 5, Size: 4}, substrate.CatMessaging) // drifts: int encodes to 10 > 4
	})
	m.Spawn("receiver", func(ep substrate.Endpoint) {
		msg := ep.Recv(substrate.CatIdle)
		got = msg.Data.([]byte)
		ep.Recv(substrate.CatIdle)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("receiver saw %v, want %v (payload aliased sender memory?)", got, want)
	}
	if m.Frames() != 2 {
		t.Fatalf("frames = %d, want 2", m.Frames())
	}
	if m.SizeDrift() != 1 {
		t.Fatalf("size drift = %d, want 1 (the undersized int send)", m.SizeDrift())
	}
}

// TestWrapUnregisteredPanics: an unregistered payload type crossing a
// wire-wrapped Send is a programming error the loopback must surface, not
// silently pass through.
func TestWrapUnregisteredPanics(t *testing.T) {
	type rogue struct{ X int }
	m := wire.Wrap(sim.NewMachine(sim.Config{Seed: 1}))
	m.Spawn("p", func(ep substrate.Endpoint) {
		ep.Send(&substrate.Msg{Dst: 0, Data: rogue{1}, Size: 8}, substrate.CatMessaging)
	})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "no codec registered") {
		t.Fatalf("Run() = %v, want the unregistered-payload panic", err)
	}
}

// TestReadFrame: the streaming decoder must frame a TCP byte stream exactly
// — consecutive frames in, clean io.EOF between them — and reject hostile
// input (bad magic, bad version, truncation, oversized declared lengths)
// with errors, the last *before* allocating what the header promises.
func TestReadFrame(t *testing.T) {
	m := &substrate.Msg{Src: 1, Dst: 2, Kind: 3, Tag: substrate.TagApp, Data: 42, Size: 64}
	frame, _ := wire.EncodeMsg(m)

	// Two frames back to back, then a clean end of stream.
	r := bytes.NewReader(append(append([]byte{}, frame...), frame...))
	for i := 0; i < 2; i++ {
		got, err := wire.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, frame) {
			t.Fatalf("frame %d: bytes differ from the encoding", i)
		}
		dm, err := wire.DecodeMsg(got)
		if err != nil || dm.Src != 1 || dm.Dst != 2 || dm.Data != 42 {
			t.Fatalf("frame %d decoded to %+v, %v", i, dm, err)
		}
	}
	if _, err := wire.ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("at stream end: err = %v, want io.EOF", err)
	}

	// Every mid-frame truncation is an error — and never a clean EOF past
	// the magic, so a dropped connection is distinguishable from a goodbye.
	for cut := 1; cut < len(frame); cut++ {
		_, err := wire.ReadFrame(bytes.NewReader(frame[:cut]), 0)
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
		if cut >= 2 && err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	corrupt := func(mutate func([]byte)) error {
		b := append([]byte{}, frame...)
		mutate(b)
		_, err := wire.ReadFrame(bytes.NewReader(b), 0)
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 0xFF }); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	if err := corrupt(func(b []byte) { b[2] = 99 }); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}

	// A header declaring a multi-gigabyte payload on a tiny stream must be
	// rejected by the length check, not by an allocation attempt.
	if err := corrupt(func(b []byte) {
		b[39], b[40], b[41], b[42] = 0x7F, 0xFF, 0xFF, 0xFF // plen field
	}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized declared length: err = %v", err)
	}

	// An honest frame above the caller's limit is rejected too.
	if _, err := wire.ReadFrame(bytes.NewReader(frame), len(frame)-1); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("frame above caller limit: err = %v", err)
	}
}
