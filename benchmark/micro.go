package main

import (
	"fmt"
	"time"
)

// Micro-probes and paired differentials (source M). Each belongs to the
// workload whose end-to-end numbers it explains and runs only in that
// workload's layers phase; each reports the median of at least five trials
// or three pairs, with its MAD and n.

const (
	microTrials = 5
	microPairs  = 3
)

// A quick run is a smoke test: it keeps every probe but not the repetition.
func (e *env) trials() int {
	if e.quick {
		return 2
	}
	return microTrials
}

func (e *env) pairs() int {
	if e.quick {
		return 1
	}
	return microPairs
}

func (e *env) loop(n int) int {
	if e.quick {
		return n / 10
	}
	return n
}

// trials repeats one probe and reports its samples under name.
func trials(r *layerReport, name string, n int, probe func() (float64, error)) error {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, err := probe()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, x)
	}
	r.put(name, xs...)
	return nil
}

// twin copies an instance with its workload definition changed.
func (in *instance) twin(change func(*workload)) *instance {
	t, wl := *in, *in.wl
	change(&wl)
	t.wl = &wl
	t.w.Shards = wl.shards
	if wl.faults == "" {
		t.plan = FaultPlan{}
	}
	return &t
}

// pairedRatio runs a then b, e.pairs() times, and samples f(a, b). With
// sameResult the two must compute the identical result (a host-only knob
// separates them); without, only each run's own checks apply.
func (e *env) pairedRatio(a, b *instance, sameResult bool, f func(a, b *outcome) float64) ([]float64, error) {
	var xs []float64
	for i := 0; i < e.pairs(); i++ {
		oa, err := a.run(e.premad, nil)
		if err != nil {
			return nil, err
		}
		ob, err := b.run(e.premad, nil)
		if err != nil {
			return nil, err
		}
		if sameResult && oa.hash != ob.hash {
			return nil, fmt.Errorf("%s: paired runs computed different results (%s, %s)", a.wl.name, oa.hash, ob.hash)
		}
		xs = append(xs, f(oa, ob))
	}
	return xs, nil
}

func (e *env) micro(s *samples, r *layerReport) error {
	in := s.ins[0]
	switch in.wl.name {
	case "fig3_implicit":
		if err := trials(r, "sim.advance_fast_ns", e.trials(), func() (float64, error) { return advanceLoop(e.loop(1_000_000), false) }); err != nil {
			return err
		}
		if err := trials(r, "sim.advance_queued_ns", e.trials(), func() (float64, error) { return advanceLoop(e.loop(100_000), true) }); err != nil {
			return err
		}
		return trials(r, "dmcs.am_roundtrip_ns", e.trials(), func() (float64, error) { return amRoundTrip(e.loop(50_000)) })

	case "fig3_implicit_s2":
		serial := in.twin(func(wl *workload) { wl.shards = 0 })
		xs, err := e.pairedRatio(serial, in, true, func(a, b *outcome) float64 { return a.wallS / b.wallS })
		if err != nil {
			return err
		}
		r.put("sim.s2_speedup", xs...)

	case "fig3_chaos":
		// What reliable mode alone costs the host: the same batch on the bare
		// simulator, fire-and-forget against ARQ with nothing to retransmit.
		plain := in.twin(func(wl *workload) { wl.wire, wl.faults, wl.reliable = false, "", false })
		clean := in.twin(func(wl *workload) { wl.wire, wl.faults = false, "" })
		xs, err := e.pairedRatio(plain, clean, false, func(a, b *outcome) float64 { return b.wallS / a.wallS })
		if err != nil {
			return err
		}
		r.put("dmcs.reliable_cost_x", xs...)
		var ns, allocs []float64
		for i := 0; i < e.trials(); i++ {
			n, a, err := codecLoop(e.loop(100_000))
			if err != nil {
				return err
			}
			ns, allocs = append(ns, n), append(allocs, a)
		}
		r.put("wire.ns_per_frame", ns...)
		r.put("wire.allocs_per_frame", allocs...)

	case "fig3_traced":
		// Recording only: the traced run's export is timed apart and left out.
		plain := in.twin(func(wl *workload) { wl.traced = false })
		xs, err := e.pairedRatio(plain, in, true, func(a, b *outcome) float64 { return 100 * ((b.wallS-b.exportS)/a.wallS - 1) })
		if err != nil {
			return err
		}
		r.put("trace.record_overhead_pct", xs...)
		return trials(r, "trace.ns_per_event", e.trials(), func() (float64, error) { return recorderLoop(e.loop(1_000_000)), nil })

	case "fig3_parmetis":
		g := kwayGraph()
		return trials(r, "partition.kway_ms", e.trials(), func() (float64, error) { return kwayMS(g), nil })

	case "dist2_fig3":
		if err := trials(r, "dist.am_roundtrip_us", e.trials(), func() (float64, error) {
			rtt, _, err := pingPong(e.loop(5000), e.premad)
			return rtt, err
		}); err != nil {
			return err
		}
		if err := trials(r, "dist.session_overhead_s", e.trials(), func() (float64, error) {
			t0 := time.Now()
			_, _, err := pingPong(1, e.premad)
			return time.Since(t0).Seconds(), err
		}); err != nil {
			return err
		}
		if err := trials(r, "rtm.makespan_over_ideal", e.pairs(), func() (float64, error) {
			res, err := runRTM(in.w, in.wl.timeScale)
			if err != nil {
				return 0, err
			}
			if err := res.CheckConservation(); err != nil {
				return 0, err
			}
			return float64(res.Makespan) / float64(in.w.IdealMakespan()), nil
		}); err != nil {
			return err
		}
		r.put("dist.inflation_vs_rtm", ratio(median(s.values(0, ratioOf)), r.metrics["rtm.makespan_over_ideal"].Median))
	}
	return nil
}
