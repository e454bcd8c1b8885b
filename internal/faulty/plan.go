// Package faulty is a fault-injecting decorator for execution substrates.
// It wraps any substrate.Machine (the deterministic simulator or the
// real-concurrency goroutine machine) and perturbs it according to a
// declarative Plan: per-(src,dst)-link message drop, duplication, extra
// delay, and reordering probabilities, plus scheduled processor stall
// windows and crash-at-time events.
//
// All injection decisions are drawn from seeded per-endpoint random streams,
// so on the simulator a faulted run is exactly as reproducible as a clean
// one: the same seed produces a byte-identical report. The decorator sits
// entirely at the substrate seam — the PREMA stack above it (dmcs, mol, ilb,
// core) cannot tell a faulty machine from a lossy physical network, which is
// precisely the point: the reliable-delivery protocol in dmcs is validated
// against this layer.
package faulty

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"prema/internal/substrate"
)

// LinkFaults is the fault model of one directed (src,dst) link. All
// probabilities are per message in [0,1] and are evaluated independently at
// the receiving endpoint, in the order drop, duplicate, delay, reorder.
type LinkFaults struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Delay is the probability a message is held for an extra uniformly
	// distributed duration in (0, DelayMax].
	Delay float64
	// DelayMax is the maximum extra delay; it defaults to 10ms when Delay is
	// set and DelayMax is not.
	DelayMax substrate.Time
	// Reorder is the probability a message is displaced behind up to
	// ReorderDepth later-arriving messages on the same endpoint.
	Reorder float64
	// ReorderDepth is the maximum displacement; it defaults to 4 when
	// Reorder is set and ReorderDepth is not.
	ReorderDepth int
}

// active reports whether this link injects any fault at all.
func (lf LinkFaults) active() bool {
	return lf.Drop > 0 || lf.Dup > 0 || lf.Delay > 0 || lf.Reorder > 0
}

// withDefaults fills the magnitude fields implied by set probabilities.
func (lf LinkFaults) withDefaults() LinkFaults {
	if lf.Delay > 0 && lf.DelayMax <= 0 {
		lf.DelayMax = 10 * substrate.Millisecond
	}
	if lf.Reorder > 0 && lf.ReorderDepth <= 0 {
		lf.ReorderDepth = 4
	}
	return lf
}

// Link names a directed (src,dst) processor pair.
type Link struct{ Src, Dst int }

// Stall schedules a processor freeze: at the first substrate call at or
// after At, processor Proc consumes For of time doing nothing (charged to
// CatIdle), modeling an OS-level stall, page fault storm, or GC pause.
type Stall struct {
	Proc int
	At   substrate.Time
	For  substrate.Time
}

// Crash schedules a fail-stop: at the first substrate call at or after At,
// processor Proc's body is torn down. The processor sends and receives
// nothing afterwards; the rest of the machine keeps running.
type Crash struct {
	Proc int
	At   substrate.Time
}

// Recover schedules a crashed processor's rejoin: at time At the processor
// comes back as a fresh incarnation — empty inbox (everything queued while it
// was down is lost), fresh protocol state — running the body installed with
// Machine.OnRejoin. A Recover without a preceding Crash for the same
// processor is a plan validation error; see Plan.Validate.
type Recover struct {
	Proc int
	At   substrate.Time
}

// Plan is a declarative fault schedule for a whole machine.
type Plan struct {
	// Default applies to every link without an explicit override.
	Default LinkFaults
	// Links overrides the model per directed link.
	Links map[Link]LinkFaults
	// Stalls are scheduled processor freezes.
	Stalls []Stall
	// Crashes are scheduled fail-stops.
	Crashes []Crash
	// Recovers are scheduled rejoins of crashed processors.
	Recovers []Recover
}

// Active reports whether the plan injects anything at all. Wrapping a
// machine with an inactive plan is a semantic no-op (but still interposes).
func (p Plan) Active() bool {
	if p.Default.active() || len(p.Stalls) > 0 || len(p.Crashes) > 0 || len(p.Recovers) > 0 {
		return true
	}
	for _, lf := range p.Links {
		if lf.active() {
			return true
		}
	}
	return false
}

func renderDur(t substrate.Time) string { return t.Duration().String() }

// ParsePlan parses the compact fault-plan syntax used by the -fault-plan
// command line flags. Semicolon-separated clauses:
//
//	drop=P,dup=P,delay=P:DUR,reorder=P:DEPTH   default link model
//	link:SRC-DST:drop=P,...                    one directed link's override
//	stall:PROC@AT+FOR                          e.g. stall:2@5s+500ms
//	crash:PROC@AT                              e.g. crash:7@20s
//	recover:PROC@AT                            e.g. recover:7@40s
//
// Durations use Go syntax ("10ms", "5s"). "none" or "" parses to the empty
// plan. The parsed plan is checked with Validate, so crash/recover schedules
// that make no sense (a rejoin with no preceding crash) are rejected here.
func ParsePlan(s string) (Plan, error) {
	p := Plan{}
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "link:"):
			rest := clause[len("link:"):]
			head, model, ok := strings.Cut(rest, ":")
			if !ok {
				return p, fmt.Errorf("faulty: link clause %q wants link:SRC-DST:faults", clause)
			}
			ss, ds, ok := strings.Cut(head, "-")
			if !ok {
				return p, fmt.Errorf("faulty: link endpoints %q want SRC-DST", head)
			}
			src, err1 := strconv.Atoi(ss)
			dst, err2 := strconv.Atoi(ds)
			if err1 != nil || err2 != nil || src < 0 || dst < 0 {
				return p, fmt.Errorf("faulty: bad link endpoints %q", head)
			}
			lf, err := parseLinkFaults(model)
			if err != nil {
				return p, err
			}
			if p.Links == nil {
				p.Links = make(map[Link]LinkFaults)
			}
			p.Links[Link{src, dst}] = lf
		case strings.HasPrefix(clause, "stall:"):
			rest := clause[len("stall:"):]
			procS, when, ok := strings.Cut(rest, "@")
			if !ok {
				return p, fmt.Errorf("faulty: stall clause %q wants stall:PROC@AT+FOR", clause)
			}
			atS, forS, ok := strings.Cut(when, "+")
			if !ok {
				return p, fmt.Errorf("faulty: stall clause %q wants stall:PROC@AT+FOR", clause)
			}
			proc, err := strconv.Atoi(procS)
			if err != nil || proc < 0 {
				return p, fmt.Errorf("faulty: bad stall processor %q", procS)
			}
			at, err := parseDur(atS)
			if err != nil {
				return p, err
			}
			dur, err := parseDur(forS)
			if err != nil {
				return p, err
			}
			p.Stalls = append(p.Stalls, Stall{Proc: proc, At: at, For: dur})
		case strings.HasPrefix(clause, "crash:"):
			rest := clause[len("crash:"):]
			procS, atS, ok := strings.Cut(rest, "@")
			if !ok {
				return p, fmt.Errorf("faulty: crash clause %q wants crash:PROC@AT", clause)
			}
			proc, err := strconv.Atoi(procS)
			if err != nil || proc < 0 {
				return p, fmt.Errorf("faulty: bad crash processor %q", procS)
			}
			at, err := parseDur(atS)
			if err != nil {
				return p, err
			}
			p.Crashes = append(p.Crashes, Crash{Proc: proc, At: at})
		case strings.HasPrefix(clause, "recover:"):
			rest := clause[len("recover:"):]
			procS, atS, ok := strings.Cut(rest, "@")
			if !ok {
				return p, fmt.Errorf("faulty: recover clause %q wants recover:PROC@AT", clause)
			}
			proc, err := strconv.Atoi(procS)
			if err != nil || proc < 0 {
				return p, fmt.Errorf("faulty: bad recover processor %q", procS)
			}
			at, err := parseDur(atS)
			if err != nil {
				return p, err
			}
			p.Recovers = append(p.Recovers, Recover{Proc: proc, At: at})
		default:
			lf, err := parseLinkFaults(clause)
			if err != nil {
				return p, err
			}
			p.Default = lf
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Validate checks the crash/recover schedule for internal consistency: per
// processor, crashes and recovers must strictly alternate starting with a
// crash (crash[0] < recover[0] < crash[1] < recover[1] < ...), and there can
// be at most one recover per crash. Link and stall clauses are always valid.
func (p Plan) Validate() error {
	crashes := map[int][]substrate.Time{}
	for _, c := range p.Crashes {
		crashes[c.Proc] = append(crashes[c.Proc], c.At)
	}
	recovers := map[int][]substrate.Time{}
	procs := []int{}
	for _, r := range p.Recovers {
		if len(recovers[r.Proc]) == 0 {
			procs = append(procs, r.Proc)
		}
		recovers[r.Proc] = append(recovers[r.Proc], r.At)
	}
	sort.Ints(procs)
	for _, proc := range procs {
		rs := recovers[proc]
		cs := crashes[proc]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		if len(rs) > len(cs) {
			return fmt.Errorf("faulty: %d recover entries for processor %d but only %d crashes", len(rs), proc, len(cs))
		}
		for i, rt := range rs {
			if rt <= cs[i] {
				return fmt.Errorf("faulty: recover:%d@%s is not after its crash at %s", proc, renderDur(rt), renderDur(cs[i]))
			}
			if i+1 < len(cs) && rt >= cs[i+1] {
				return fmt.Errorf("faulty: recover:%d@%s is not before the next crash at %s", proc, renderDur(rt), renderDur(cs[i+1]))
			}
		}
	}
	return nil
}

func parseLinkFaults(s string) (LinkFaults, error) {
	var lf LinkFaults
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return lf, fmt.Errorf("faulty: fault field %q wants key=value", field)
		}
		switch key {
		case "drop":
			if err := parseProb(val, &lf.Drop); err != nil {
				return lf, err
			}
		case "dup":
			if err := parseProb(val, &lf.Dup); err != nil {
				return lf, err
			}
		case "delay":
			ps, ds, hasMax := strings.Cut(val, ":")
			if err := parseProb(ps, &lf.Delay); err != nil {
				return lf, err
			}
			if hasMax {
				d, err := parseDur(ds)
				if err != nil {
					return lf, err
				}
				lf.DelayMax = d
			}
		case "reorder":
			ps, ds, hasDepth := strings.Cut(val, ":")
			if err := parseProb(ps, &lf.Reorder); err != nil {
				return lf, err
			}
			if hasDepth {
				n, err := strconv.Atoi(ds)
				if err != nil || n < 1 {
					return lf, fmt.Errorf("faulty: bad reorder depth %q", ds)
				}
				lf.ReorderDepth = n
			}
		default:
			return lf, fmt.Errorf("faulty: unknown fault %q (want drop, dup, delay, reorder)", key)
		}
	}
	return lf.withDefaults(), nil
}

func parseProb(s string, out *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return fmt.Errorf("faulty: bad probability %q (want [0,1])", s)
	}
	*out = v
	return nil
}

func parseDur(s string) (substrate.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("faulty: bad duration %q", s)
	}
	return substrate.FromDuration(d), nil
}
