package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile.go reads the CPU profile the benchmark itself records around a
// probed run (runtime/pprof writes gzipped profile.proto) and folds its
// samples into one bucket per layer. The decoder knows only the handful of
// fields the fold needs.

// protoField is one decoded field of a protobuf message: a varint value or
// a length-delimited payload. Fixed-width fields are skipped.
type protoField struct {
	num  int
	val  uint64
	data []byte
}

var errTruncated = errors.New("truncated profile")

func varint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// fields walks one message, calling fn per varint or length-delimited field.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := varint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = varint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			n, rest, err := varint(b)
			if err != nil || uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field in either encoding (packed
// payload or one varint per occurrence).
func repeated(dst []uint64, f protoField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := varint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// stackSample is one profile sample: function names leaf first, and its
// weight (the last sample value: CPU nanoseconds in a CPU profile).
type stackSample struct {
	frames []string
	weight int64
}

// parseProfile decodes a gzipped pprof profile into weighted stacks.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := fields(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeated(s.locs, g)
				case 2:
					s.vals, err = repeated(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return fields(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{weight: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Go-runtime functions that are goroutine hand-off and scheduling (what the
// simulator's two channel operations per event turn into), and those that
// are garbage collection. Matched as prefixes of the name after "runtime.".
var (
	schedPrefixes = []string{
		"chan", "send", "recv", "closechan", "selectgo", "sellock", "selunlock", "acquireSudog", "releaseSudog",
		"gopark", "park", "goready", "ready", "schedule", "findRunnable", "findrunnable", "stealWork", "execute", "gogo", "mcall",
		"runq", "globrunq", "wakep", "startm", "stopm", "mPark", "handoffp", "pidle", "resetspinning", "injectglist",
		"futex", "lock2", "unlock2", "lockWithRank", "unlockWithRank", "notesleep", "notewakeup", "notetsleep", "osyield", "usleep",
		"casgstatus", "dropg", "checkTimers", "netpoll", "goschedImpl", "gosched", "Gosched",
	}
	gcPrefixes = []string{
		"gcBgMarkWorker", "gcDrain", "gcMark", "gcAssist", "gcStart", "gcFlushBgCredit", "gcSweep", "gcResetMarkState",
		"scanobject", "scanblock", "scanstack", "markroot", "greyobject", "bgsweep", "bgscavenge", "sweepone",
		"(*gcWork)", "(*mspan).sweep", "(*sweepLocked)", "(*gcControllerState)", "wbBufFlush", "(*mheap).reclaim",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf names the layer one function belongs to, or "" for a function
// (memmove, mallocgc, a map access, the standard library) whose time belongs
// to whoever called it.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "prema/internal/"):
		pkg, _, _ := strings.Cut(fn[len("prema/internal/"):], ".")
		if pkg == "sim" && strings.Contains(fn, "eventHeap") {
			return "sim.heap"
		}
		return pkg
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "prema/benchmark."):
		return "benchmark"
	case strings.HasPrefix(fn, "runtime."):
		name := fn[len("runtime."):]
		if hasAnyPrefix(name, gcPrefixes) {
			return "goruntime.gc"
		}
		if hasAnyPrefix(name, schedPrefixes) {
			return "goruntime.sched"
		}
	}
	return ""
}

// foldProfile gives each sample to the first frame, leaf to root, that has a
// bucket, and returns every bucket's share of the program's samples. A heap
// push's memmove is the simulator's, an allocation inside a handler is
// dmcs's, and a futex under schedule is the Go scheduler's. Samples of the
// benchmark's own code (the seam probe's timestamps, mostly) are not the
// program's: they are left out of the total, and "benchmark" is their size
// relative to it.
func foldProfile(samples []stackSample) map[string]float64 {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		bucket := "other"
		for _, fn := range s.frames {
			if b := bucketOf(fn); b != "" {
				bucket = b
				break
			}
		}
		weights[bucket] += s.weight
		if bucket != "benchmark" {
			total += s.weight
		}
	}
	shares := make(map[string]float64, len(weights))
	if total == 0 {
		return shares
	}
	for b, w := range weights {
		shares[b] = float64(w) / float64(total)
	}
	// The heap is part of the simulator: keep it visible and counted.
	shares["sim"] += shares["sim.heap"]
	return shares
}
