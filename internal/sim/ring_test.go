package sim

import (
	"math/rand"
	"testing"
)

// TestRingFIFO: push/removeAt(0) is FIFO across many wrap-arounds and growth.
func TestRingFIFO(t *testing.T) {
	var r msgRing
	msgs := make([]Msg, 1000)
	in, out := 0, 0
	rng := rand.New(rand.NewSource(3))
	for out < len(msgs) {
		if in < len(msgs) && (rng.Intn(2) == 0 || r.Len() == 0) {
			msgs[in].Tag = in
			r.push(&msgs[in])
			in++
		} else {
			m := r.removeAt(0)
			if m.Tag != out {
				t.Fatalf("popped %d, want %d", m.Tag, out)
			}
			out++
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestRingRemoveAt: removing from any position preserves the relative order
// of the rest, matching a reference slice, across wrapped states.
func TestRingRemoveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var r msgRing
	var ref []*Msg
	msgs := make([]Msg, 4096)
	next := 0
	// Pre-rotate so head is mid-buffer and removals cross the wrap point.
	for i := 0; i < 24; i++ {
		r.push(&msgs[next])
		next++
	}
	for i := 0; i < 20; i++ {
		r.removeAt(0)
	}
	ref = append(ref, r.at(0), r.at(1), r.at(2), r.at(3))
	for step := 0; step < 2000; step++ {
		switch {
		case r.Len() == 0 || (next < len(msgs) && rng.Intn(3) > 0):
			msgs[next].Tag = next
			r.push(&msgs[next])
			ref = append(ref, &msgs[next])
			next++
		default:
			i := rng.Intn(r.Len())
			got := r.removeAt(i)
			want := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got != want {
				t.Fatalf("step %d: removeAt(%d) = tag %d, want tag %d", step, i, got.Tag, want.Tag)
			}
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs ref %d", step, r.Len(), len(ref))
		}
		for i := range ref {
			if r.at(i) != ref[i] {
				t.Fatalf("step %d: at(%d) = tag %d, want tag %d", step, i, r.at(i).Tag, ref[i].Tag)
			}
		}
	}
}

// TestRingReusesBacking: draining and refilling within capacity never
// reallocates the backing array.
func TestRingReusesBacking(t *testing.T) {
	var r msgRing
	msgs := make([]Msg, ringMinCap)
	for i := range msgs {
		r.push(&msgs[i])
	}
	if len(r.buf) != ringMinCap {
		t.Fatalf("cap = %d, want %d", len(r.buf), ringMinCap)
	}
	for range msgs {
		r.removeAt(0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range msgs {
			r.push(&msgs[i])
		}
		for range msgs {
			r.removeAt(0)
		}
	})
	if allocs != 0 {
		t.Errorf("drain/refill allocates %v, want 0", allocs)
	}
}
