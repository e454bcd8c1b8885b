package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"prema/internal/stats"
	"prema/internal/substrate"
)

// Hist is a fixed-bucket histogram: bounded memory however many samples are
// observed, with P50/P95/P99 estimated by linear interpolation inside the
// owning bucket. Bounds are upper bucket edges; observations above the last
// bound land in an overflow bucket whose quantiles report the observed max.
type Hist struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1, last = overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// NewHist builds a histogram with the given ascending upper bucket bounds.
func NewHist(bounds ...float64) *Hist {
	return &Hist{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Hist) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Mean returns the sample mean (0 for an empty histogram).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, clamped to the observed
// min/max.
func (h *Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := h.Min
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Max
			if i < len(h.Bounds) && h.Bounds[i] < hi {
				hi = h.Bounds[i]
			}
			if lo < h.Min {
				lo = h.Min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(n)
			v := lo + (hi-lo)*frac
			return math.Max(h.Min, math.Min(h.Max, v))
		}
		cum = next
	}
	return h.Max
}

// PerProcSummary summarizes one per-processor quantity (exact values, one
// per processor) with percentiles computed by internal/stats.
type PerProcSummary struct {
	Total float64 `json:"total"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(xs []float64) PerProcSummary {
	var total float64
	for _, x := range xs {
		total += x
	}
	return PerProcSummary{
		Total: total,
		Mean:  stats.Mean(xs),
		P50:   stats.P50(xs),
		P95:   stats.P95(xs),
		P99:   stats.P99(xs),
		Max:   stats.Max(xs),
	}
}

// Registry is the aggregated metrics view of a trace: monotonic counters,
// fixed-bucket histograms, and per-processor category-time summaries. Build
// one with Summarize; render with Text or WriteJSON.
type Registry struct {
	// Counters holds machine-wide event counts (per kind, drops, totals).
	Counters map[string]int64 `json:"counters"`
	// Hists holds the fixed-bucket histograms (unit durations, forwarding
	// hops, message sizes).
	Hists map[string]*Hist `json:"histograms"`
	// Categories summarizes per-processor seconds spent in each accounting
	// category (from the recorded spans), percentiles across processors.
	Categories map[string]PerProcSummary `json:"categories"`
	// Procs is the machine size.
	Procs int `json:"procs"`
	// MakespanS is the run's makespan in seconds (0 if unknown).
	MakespanS float64 `json:"makespan_s"`
}

// Summarize aggregates a collector into a metrics registry. makespan may be
// zero when unknown.
func Summarize(c *Collector, makespan substrate.Time) *Registry {
	reg := &Registry{
		Counters:   map[string]int64{},
		Hists:      map[string]*Hist{},
		Categories: map[string]PerProcSummary{},
		Procs:      c.NumProcs(),
		MakespanS:  makespan.Seconds(),
	}
	unitSec := NewHist(0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 50, 100)
	hops := NewHist(1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
	sendBytes := NewHist(16, 64, 256, 1024, 4096, 16384, 65536)
	var kindTotals [NumKinds]int64
	catSecs := make([][]float64, substrate.NumCategories)
	for i := range catSecs {
		catSecs[i] = make([]float64, c.NumProcs())
	}
	// A stretch of n polls is folded: its kinds are counted n at a time,
	// and each span's seconds are charged by addN, exactly as n additions
	// would charge them, never multiplied by n (which rounds apart). Its
	// spans are of distinct categories, so this is the order the expanded
	// events add in; the histograms' kinds come in runs of one only. A kind
	// out of range is counted nowhere, as the Chrome writer writes it
	// nowhere.
	for i, r := range c.recs {
		for ru := range r.runs() {
			for j := range ru.evs {
				e := &ru.evs[j]
				if e.Kind < NumKinds {
					kindTotals[e.Kind] += int64(ru.n)
				}
				switch e.Kind {
				case EvSpan:
					if cat := substrate.Category(e.A); cat >= 0 && cat < substrate.NumCategories {
						x := &catSecs[cat][i]
						*x = addN(*x, e.Dur.Seconds(), ru.n)
					}
				case EvUnitEnd:
					unitSec.Observe(e.Dur.Seconds())
				case EvForward:
					hops.Observe(float64(e.B))
				case EvSend:
					sendBytes.Observe(float64(e.C))
				}
			}
		}
	}
	for k, n := range kindTotals {
		reg.Counters["ev_"+strings.ReplaceAll(Kind(k).String(), "-", "_")+"_total"] = n
	}
	reg.Counters["trace_events_total"] = int64(c.Total())
	reg.Counters["trace_dropped_total"] = int64(c.Dropped())
	reg.Hists["unit_seconds"] = unitSec
	reg.Hists["forward_hops"] = hops
	reg.Hists["send_bytes"] = sendBytes
	for cat := substrate.Category(0); cat < substrate.NumCategories; cat++ {
		if s := summarize(catSecs[cat]); s.Total > 0 {
			reg.Categories[strings.ToLower(cat.String())+"_s"] = s
		}
	}
	return reg
}

// addN returns x after n repeated x += d, bit for bit, in a step per binade
// of x instead of one per addition. Inside one binade [2^e, 2^(e+1)) every
// float64 is a multiple of its ulp u = 2^(e-52), so x + d rounds to x plus
// the multiple of u nearest d, m·u, the same for every x there unless d/u
// ends in exactly one half (a tie, which rounds to even and so depends on
// x). While x + m·u stays below 2^(e+1), k additions therefore make x + k·m·u
// exactly, which is an integer addition to x's mantissa bits. A tie, and
// the addition that leaves the binade, are made as one real addition each;
// m = 0 (d under half an ulp) leaves x where it is for good. A zero or
// subnormal x, whose ulp does not follow the exponent, takes one real
// addition too. Fewer than 8 additions, and a negative or non-finite x or d,
// take the plain loop.
func addN(x, d float64, n uint64) float64 {
	if n < 8 || !(x >= 0 && d > 0 && d <= math.MaxFloat64) {
		for ; n > 0; n-- {
			x += d
		}
		return x
	}
	const mantBits = 1<<52 - 1
	for n > 0 {
		b := math.Float64bits(x)
		exp := b >> 52 & 0x7ff // a -0 has the sign bit, not exponent bits
		if exp == 0x7ff {
			return x // +Inf: no further addition of a finite d moves it
		}
		if exp > 0 {
			if q := d / math.Ldexp(1, int(exp)-1075); q < 1<<53 { // d/u, exact: u is a power of two
				m := math.Floor(q)
				if frac := q - m; frac != 0.5 {
					if frac > 0.5 {
						m++
					}
					if m == 0 {
						return x
					}
					// The mantissa with its hidden bit, x/u, may reach 2^53 - 1.
					if k := min(n, (1<<53-1-(b&mantBits|1<<52))/uint64(m)); k > 0 {
						x = math.Float64frombits(b + k*uint64(m))
						n -= k
						continue
					}
				}
			}
		}
		x += d
		n--
	}
	return x
}

// Text renders the registry as fixed-width tables.
func (reg *Registry) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace metrics: procs=%d makespan=%.3fs events=%d dropped=%d\n\n",
		reg.Procs, reg.MakespanS, reg.Counters["trace_events_total"], reg.Counters["trace_dropped_total"])

	ct := stats.NewTable("counter", "value")
	for _, k := range sortedKeys(reg.Counters) {
		ct.AddRow(k, fmt.Sprintf("%d", reg.Counters[k]))
	}
	b.WriteString(ct.String())
	b.WriteByte('\n')

	ht := stats.NewTable("histogram", "count", "mean", "p50", "p95", "p99", "max")
	for _, k := range sortedKeys(reg.Hists) {
		h := reg.Hists[k]
		ht.AddRow(k, fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%.4g", h.Mean()),
			fmt.Sprintf("%.4g", h.Quantile(0.50)),
			fmt.Sprintf("%.4g", h.Quantile(0.95)),
			fmt.Sprintf("%.4g", h.Quantile(0.99)),
			fmt.Sprintf("%.4g", h.Max))
	}
	b.WriteString(ht.String())
	b.WriteByte('\n')

	kt := stats.NewTable("category (s/proc)", "total", "mean", "p50", "p95", "p99", "max")
	for _, k := range sortedKeys(reg.Categories) {
		s := reg.Categories[k]
		kt.AddRow(k, s.Total, s.Mean, s.P50, s.P95, s.P99, s.Max)
	}
	b.WriteString(kt.String())
	return b.String()
}

// WriteJSON renders the registry as indented JSON.
func (reg *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the registry to path: JSON when the path ends in .json,
// the text rendering otherwise.
func (reg *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = reg.WriteJSON(f)
	} else {
		_, err = io.WriteString(f, reg.Text())
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SuffixPath derives a per-run output path from a base path by inserting
// suffix before the extension: SuffixPath("t.json", "fig3") = "t.fig3.json".
func SuffixPath(path, suffix string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + suffix + path[i:]
	}
	return path + "." + suffix
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
