package substrate

import (
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t       Time
		seconds float64
		str     string
	}{
		{0, 0, "0.000s"},
		{Second, 1, "1.000s"},
		{1500 * Millisecond, 1.5, "1.500s"},
		{250 * Microsecond, 0.00025, "0.000s"},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); got != c.seconds {
			t.Errorf("%d.Seconds() = %v, want %v", int64(c.t), got, c.seconds)
		}
		if got := c.t.String(); got != c.str {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.str)
		}
	}
}

func TestTimeDurationRoundTrip(t *testing.T) {
	d := 1500 * time.Millisecond
	if got := FromDuration(d); got != 1500*Millisecond {
		t.Fatalf("FromDuration(%v) = %v", d, got)
	}
	if got := (1500 * Millisecond).Duration(); got != d {
		t.Fatalf("Duration() = %v, want %v", got, d)
	}
}

func TestScale(t *testing.T) {
	cases := []struct {
		in   Time
		f    float64
		want Time
	}{
		{Second, 2.0, 2 * Second},
		{Second, 0.5, 500 * Millisecond},
		{10 * Second, 1.2, 12 * Second},
		{3, 0.5, 1}, // rounds toward zero
	}
	for _, c := range cases {
		if got := Scale(c.in, c.f); got != c.want {
			t.Errorf("Scale(%v, %v) = %v, want %v", c.in, c.f, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CatCompute.String() != "Computation" || CatSync.String() != "Sync" {
		t.Fatalf("category names wrong: %q %q", CatCompute, CatSync)
	}
	if Category(-1).String() != "Unknown" || NumCategories.String() != "Unknown" {
		t.Fatal("out-of-range categories should stringify as Unknown")
	}
}

func TestAccount(t *testing.T) {
	var a Account
	a[CatCompute] = 10 * Second
	a[CatIdle] = 2 * Second
	a[CatMessaging] = Second
	a[CatScheduling] = 500 * Millisecond
	if got := a.Total(); got != 13500*Millisecond {
		t.Fatalf("Total = %v", got)
	}
	if got := a.Overhead(); got != 1500*Millisecond {
		t.Fatalf("Overhead = %v", got)
	}
}

// stepRecorder is an Endpoint that only knows how to Advance.
type stepRecorder struct {
	Endpoint
	calls []Time
	cats  []Category
}

func (r *stepRecorder) Advance(d Time, cat Category) {
	r.calls, r.cats = append(r.calls, d), append(r.cats, cat)
}

// TestAdvancePolledFallback: when an endpoint declines a polled advance, the
// caller's StepPolled takes exactly one slice per call — a poll only while
// compute remains, made even at zero cost so a tracer sees the wake.
func TestAdvancePolledFallback(t *testing.T) {
	ps := PollSpec{Interval: 10 * Millisecond, Cost: 4 * Microsecond}
	cases := []struct {
		d     Time
		ps    PollSpec
		done  Time
		polls int
		calls []Time
	}{
		{25 * Millisecond, ps, 10 * Millisecond, 1, []Time{10 * Millisecond, 4 * Microsecond}},
		{10 * Millisecond, ps, 10 * Millisecond, 0, []Time{10 * Millisecond}},
		{3 * Millisecond, ps, 3 * Millisecond, 0, []Time{3 * Millisecond}},
		{25 * Millisecond, PollSpec{Interval: 10 * Millisecond}, 10 * Millisecond, 1, []Time{10 * Millisecond, 0}},
	}
	for _, c := range cases {
		r := &stepRecorder{}
		done, polls := StepPolled(r, c.d, c.ps)
		if done != c.done || polls != c.polls {
			t.Errorf("StepPolled(%v) = (%v, %d), want (%v, %d)", c.d, done, polls, c.done, c.polls)
		}
		if len(r.calls) != len(c.calls) {
			t.Fatalf("StepPolled(%v) made Advance calls %v, want %v", c.d, r.calls, c.calls)
		}
		for i := range c.calls {
			wantCat := CatCompute
			if i == 1 {
				wantCat = CatPollThread
			}
			if r.calls[i] != c.calls[i] || r.cats[i] != wantCat {
				t.Errorf("StepPolled(%v) call %d = (%v, %v), want (%v, %v)", c.d, i, r.calls[i], r.cats[i], c.calls[i], wantCat)
			}
		}
	}
}
