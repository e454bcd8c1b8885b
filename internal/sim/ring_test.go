package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDeliveryRingWrapAndGrowth: pushes that land a few slots from the tail,
// at the tail and at the head, interleaved with pops, keep the delivery ring
// equal to a sorted reference while its head wraps around the backing array
// and while it grows from a wrapped state. Capacity stays a power of two, and
// once grown the ring never reallocates at the same depth.
func TestDeliveryRingWrapAndGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r deliveryRing
	var ref []delivery
	var ord uint64
	var now Time
	grewWrapped := false
	check := func(step int) {
		if r.n != len(ref) || len(r.buf)&(len(r.buf)-1) != 0 {
			t.Fatalf("step %d: %d queued in a ring of %d, want %d", step, r.n, len(r.buf), len(ref))
		}
		for i, x := range ref {
			if r.buf[(r.head+i)&(len(r.buf)-1)] != x {
				t.Fatalf("step %d: slot %d = %+v, want %+v", step, i, r.buf[(r.head+i)&(len(r.buf)-1)], x)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		// Phases of growth and of drain, so the ring fills while wrapped.
		depth := 24 + 40*(step/2000%3)
		if r.n == 0 || r.n < depth && rng.Intn(2) == 0 {
			ord++
			x := delivery{at: now + Time(rng.Intn(40)), ord: ord, m: &Msg{}}
			if rng.Intn(8) == 0 {
				x.at = now // at the head: every queued delivery shifts
			}
			if r.n == len(r.buf) && r.head != 0 {
				grewWrapped = true
			}
			r.push(x)
			i, _ := slices.BinarySearchFunc(ref, x, func(a, b delivery) int {
				if a.before(&b) {
					return -1
				}
				return 1
			})
			ref = slices.Insert(ref, i, x)
		} else {
			if r.next() != ref[0].at {
				t.Fatalf("step %d: next = %v, want %v", step, r.next(), ref[0].at)
			}
			x := r.pop()
			if x != ref[0].m {
				t.Fatalf("step %d: popped %+v, want %+v", step, x, ref[0])
			}
			now, ref = ref[0].at, ref[1:]
		}
		check(step)
	}
	if !grewWrapped {
		t.Fatal("the ring never grew from a wrapped state")
	}
	for r.n > 0 {
		r.pop()
	}
	m := &Msg{}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < len(r.buf); i++ {
			r.push(delivery{at: Time(len(r.buf) - i), m: m}) // every push lands at the head
		}
		for r.n > 0 {
			r.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("drain/refill allocates %v, want 0", allocs)
	}
}

// TestArrivalsMatchSortedReference: the in-flight arrival queue keeps its
// times sorted, its first field equal to the earliest, and its backing array
// once warm, while pushes land anywhere and pops take the head.
func TestArrivalsMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := arrivals{first: maxTime}
	var ref []Time
	var now Time
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || len(ref) < 12 && rng.Intn(2) == 0 {
			at := now + Time(rng.Intn(30))
			a.push(at)
			i, _ := slices.BinarySearch(ref, at)
			ref = slices.Insert(ref, i, at)
		} else {
			now, ref = ref[0], ref[1:]
			a.pop()
		}
		want := maxTime
		if len(ref) > 0 {
			want = ref[0]
		}
		if !slices.Equal(a.t[a.h:], ref) || a.first != want {
			t.Fatalf("step %d: queue %v first %v, want %v first %v", step, a.t[a.h:], a.first, ref, want)
		}
	}
	if cap(a.t) > 32 {
		t.Errorf("backing array grew to %d for a queue of at most 12", cap(a.t))
	}
}
