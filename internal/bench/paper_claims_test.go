package bench

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fullScale is figs_full_scale.txt read back: per figure, each system's
// makespan, compute std-dev and overhead (seconds and percent as printed),
// the ParMETIS sync+partition share and the implicit PREMA overhead line;
// then the mesh experiment's rows.
type fullScale struct {
	figs map[int]*figureRows
	mesh map[string]claimRow // none, prema-implicit, repartition
}

type figureRows struct {
	rows          map[string]claimRow
	syncPartition float64 // "parmetis sync+partition: X% of useful compute"
	premaOverhead float64 // "prema-implicit overhead: X% of useful compute"
}

type claimRow struct{ makespan, stddev, overhead float64 }

var (
	figHead   = regexp.MustCompile(`^=== Figure (\d+):`)
	figRow    = regexp.MustCompile(`^\s+(\S+)\s+makespan=\s*([\d.]+)s\s+stddev\(comp\)=\s*([\d.]+)s\s+overhead=\s*([\d.]+)%`)
	meshRow   = regexp.MustCompile(`^\s+(\S+)\s+makespan=\s*([\d.]+)s\s+overhead=\s*([\d.]+)% of runtime`)
	syncLine  = regexp.MustCompile(`^\s+parmetis sync\+partition:\s+([\d.]+)%`)
	premaLine = regexp.MustCompile(`^\s+prema-implicit overhead:\s+([\d.]+)%`)
)

// num parses a number the regexps above matched (digits and dots only).
func num(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

func parseFullScale(text string) (*fullScale, error) {
	fs := &fullScale{figs: map[int]*figureRows{}, mesh: map[string]claimRow{}}
	var cur *figureRows
	for _, line := range strings.Split(text, "\n") {
		if m := figHead.FindStringSubmatch(line); m != nil {
			id, _ := strconv.Atoi(m[1])
			cur = &figureRows{rows: map[string]claimRow{}}
			fs.figs[id] = cur
			continue
		}
		if m := meshRow.FindStringSubmatch(line); m != nil {
			fs.mesh[m[1]] = claimRow{makespan: num(m[2]), overhead: num(m[3])}
			continue
		}
		if cur == nil {
			continue
		}
		if m := figRow.FindStringSubmatch(line); m != nil {
			cur.rows[m[1]] = claimRow{num(m[2]), num(m[3]), num(m[4])}
		} else if m := syncLine.FindStringSubmatch(line); m != nil {
			cur.syncPartition = num(m[1])
		} else if m := premaLine.FindStringSubmatch(line); m != nil {
			cur.premaOverhead = num(m[1])
		}
	}
	for _, id := range []int{3, 4, 5, 6} {
		if f := fs.figs[id]; f == nil || len(f.rows) != 6 {
			return nil, fmt.Errorf("figure %d: want 6 system rows", id)
		}
	}
	if len(fs.mesh) != 3 {
		return nil, fmt.Errorf("mesh experiment: %d rows, want 3", len(fs.mesh))
	}
	return fs, nil
}

// paperClaims are DESIGN §4's shape targets and §5's scalar claims, each a
// check over the parsed full-scale run.
var paperClaims = []struct {
	name  string
	check func(fs *fullScale) error
}{
	{"implicit PREMA has the lowest makespan on every figure", func(fs *fullScale) error {
		for id, f := range fs.figs {
			impl := f.rows["prema-implicit"].makespan
			for sys, r := range f.rows {
				if sys != "prema-implicit" && r.makespan <= impl {
					return fmt.Errorf("figure %d: %s %.1f s <= prema-implicit %.1f s", id, sys, r.makespan, impl)
				}
			}
		}
		return nil
	}},
	{"Fig. 3: ParMETIS within 10 % of implicit PREMA", func(fs *fullScale) error {
		r := fs.figs[3].rows
		if pm, impl := r["parmetis"].makespan, r["prema-implicit"].makespan; pm > 1.1*impl {
			return fmt.Errorf("parmetis %.1f s > 1.1 x prema-implicit %.1f s", pm, impl)
		}
		return nil
	}},
	{"Fig. 3: explicit PREMA and charm within 1 % of none, 30-45 % above implicit", func(fs *fullScale) error {
		r := fs.figs[3].rows
		none, impl := r["none"].makespan, r["prema-implicit"].makespan
		for _, sys := range []string{"prema-explicit", "charm"} {
			m := r[sys].makespan
			if m < 0.99*none || m > 1.01*none || m < 1.30*impl || m > 1.45*impl {
				return fmt.Errorf("%s %.1f s: none %.1f s, prema-implicit %.1f s", sys, m, none, impl)
			}
		}
		return nil
	}},
	{"Figs. 3-5: charm-sync4 slower than none", func(fs *fullScale) error {
		for _, id := range []int{3, 4, 5} {
			if r := fs.figs[id].rows; r["charm-sync4"].makespan <= r["none"].makespan {
				return fmt.Errorf("figure %d: charm-sync4 %.1f s <= none %.1f s", id, r["charm-sync4"].makespan, r["none"].makespan)
			}
		}
		return nil
	}},
	{"Fig. 4: ParMETIS slower than none", func(fs *fullScale) error {
		if r := fs.figs[4].rows; r["parmetis"].makespan <= r["none"].makespan {
			return fmt.Errorf("parmetis %.1f s <= none %.1f s", r["parmetis"].makespan, r["none"].makespan)
		}
		return nil
	}},
	{"Fig. 4: std-dev implicit << explicit < charm", func(fs *fullScale) error {
		r := fs.figs[4].rows
		impl, expl, charm := r["prema-implicit"].stddev, r["prema-explicit"].stddev, r["charm"].stddev
		if 10*impl > expl || expl >= charm {
			return fmt.Errorf("std-devs implicit %.2f, explicit %.2f, charm %.2f s", impl, expl, charm)
		}
		return nil
	}},
	{"ParMETIS sync+partition grows from Fig. 5 to Figs. 4 and 6", func(fs *fullScale) error {
		five := fs.figs[5].syncPartition
		for _, id := range []int{4, 6} {
			if fs.figs[id].syncPartition <= 10*five {
				return fmt.Errorf("figure %d: %.2f %% is not 10 x figure 5's %.2f %%", id, fs.figs[id].syncPartition, five)
			}
		}
		return nil
	}},
	{"PREMA overhead < 1 % on every figure", func(fs *fullScale) error {
		for id, f := range fs.figs {
			for _, v := range []float64{f.premaOverhead, f.rows["prema-implicit"].overhead, f.rows["prema-explicit"].overhead} {
				if v <= 0 || v >= 1 {
					return fmt.Errorf("figure %d: PREMA overhead %.4f %%", id, v)
				}
			}
		}
		return nil
	}},
	{"mesh: prema-implicit < repartition < none", func(fs *fullScale) error {
		impl, rep, none := fs.mesh["prema-implicit"].makespan, fs.mesh["repartition"].makespan, fs.mesh["none"].makespan
		if impl >= rep || rep >= none {
			return fmt.Errorf("makespans prema-implicit %.1f, repartition %.1f, none %.1f s", impl, rep, none)
		}
		return nil
	}},
	{"mesh: PREMA overhead < 1 %", func(fs *fullScale) error {
		if v := fs.mesh["prema-implicit"].overhead; v <= 0 || v >= 1 {
			return fmt.Errorf("prema-implicit overhead %.3f %% of runtime", v)
		}
		return nil
	}},
}

// TestPaperClaimsFullScale holds the checked-in full-scale run to the paper's
// claims, so a declared golden change is judged against the paper and not
// only against the old bytes. A copy in which implicit PREMA is not the
// fastest on Figure 3 must fail the first claim.
func TestPaperClaimsFullScale(t *testing.T) {
	raw, err := os.ReadFile("../../figs_full_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := parseFullScale(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range paperClaims {
		if err := c.check(fs); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	const fig3Implicit = "prema-implicit   makespan=   970.5s"
	if !strings.Contains(string(raw), fig3Implicit) {
		t.Fatalf("figs_full_scale.txt no longer holds %q; update the doctored copy", fig3Implicit)
	}
	doctored, err := parseFullScale(strings.Replace(string(raw), fig3Implicit, "prema-implicit   makespan=  1290.5s", 1))
	if err != nil {
		t.Fatal(err)
	}
	if paperClaims[0].check(doctored) == nil {
		t.Error("a copy with prema-implicit slowest on Figure 3 passes the lowest-makespan claim")
	}
}
