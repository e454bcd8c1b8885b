package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
	if Max(xs) != 9 {
		t.Fatal("max")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty inputs must give 0")
	}
}

func TestStdDevProperties(t *testing.T) {
	// Shifting does not change stddev; scaling scales it.
	f := func(raw []int8, shift int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			shifted[i] = float64(v) + float64(shift)
			scaled[i] = 3 * float64(v)
		}
		s := StdDev(xs)
		return math.Abs(StdDev(shifted)-s) < 1e-9 && math.Abs(StdDev(scaled)-3*s) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantSeriesHasZeroStdDev(t *testing.T) {
	if s := StdDev([]float64{7, 7, 7, 7}); s != 0 {
		t.Fatalf("stddev of constant = %v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("proc", "time")
	tb.AddRow(0, 1.5)
	tb.AddRow(100, 2.25)
	out := tb.String()
	if !strings.Contains(out, "proc") || !strings.Contains(out, "2.25") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
	// Columns aligned: every line has the same prefix width for column 1.
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}
