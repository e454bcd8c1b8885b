package mesh

import "math"

// SizingField prescribes the target edge length h(x) for the mesher: small h
// means fine elements, many tetrahedra, heavy computation.
type SizingField interface {
	// H returns the target edge length at p (must be > 0).
	H(p Vec3) float64
}

// Uniform is a constant sizing field.
type Uniform struct{ Size float64 }

// H implements SizingField.
func (u Uniform) H(Vec3) float64 { return u.Size }

// Crack is the paper's crack-growth scenario: a propagating crack front
// (modeled as a segment from Origin toward Dir, grown to length Length)
// forces strong refinement in a band of radius Radius around it, grading
// from HMin at the crack to HMax far away. As the crack advances across
// subdomain boundaries, the subdomains it enters become drastically heavier
// — the paper's localized, unpredictable workload spike.
type Crack struct {
	Origin Vec3
	Dir    Vec3 // unit direction of propagation
	Length float64
	Radius float64
	HMin   float64
	HMax   float64
}

// Tip returns the current crack tip position.
func (c Crack) Tip() Vec3 { return c.Origin.Add(c.Dir.Scale(c.Length)) }

// distToSegment returns the distance from p to the crack segment.
func (c Crack) distToSegment(p Vec3) float64 {
	ab := c.Dir.Scale(c.Length)
	t := p.Sub(c.Origin).Dot(ab)
	den := ab.Dot(ab)
	if den > 0 {
		t /= den
	} else {
		t = 0
	}
	t = math.Max(0, math.Min(1, t))
	return p.Dist(c.Origin.Add(ab.Scale(t)))
}

// H implements SizingField: graded refinement around the crack.
func (c Crack) H(p Vec3) float64 {
	d := c.distToSegment(p)
	if d >= c.Radius {
		return c.HMax
	}
	frac := d / c.Radius
	return c.HMin + (c.HMax-c.HMin)*frac*frac
}

// EstimateElements estimates how many tetrahedra a mesher honoring the
// sizing field produces inside box b, by midpoint integration of dV/h(x)^3
// over an n^3 sample grid times the tetrahedra-per-cube packing factor (~6
// tets per h-cube). It tracks the real mesher well enough for planning and
// is exact enough for load modeling where running the mesher is too slow.
func EstimateElements(b Box, f SizingField, n int) float64 {
	if n < 1 {
		n = 1
	}
	s := b.Size()
	cell := Vec3{s.X / float64(n), s.Y / float64(n), s.Z / float64(n)}
	cellVol := b.Volume() / float64(n*n*n)
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				p := Vec3{
					b.Lo.X + (float64(i)+0.5)*cell.X,
					b.Lo.Y + (float64(j)+0.5)*cell.Y,
					b.Lo.Z + (float64(k)+0.5)*cell.Z,
				}
				h := f.H(p)
				total += cellVol / (h * h * h)
			}
		}
	}
	return 6 * total
}
