// Package mesh implements a simplified 3-D advancing front tetrahedral mesh
// generator, an octree-style domain decomposition, and the crack-growth
// refinement scenario the paper's mesh experiment is built on (§5: a
// 3-dimensional parallel advancing front mesh generator whose workload
// spikes as a crack front moves through the domain).
//
// The mesher is a real advancing-front implementation (surface front of
// oriented triangles, apex placement by the sizing field, vertex snapping
// through a spatial hash, front cancellation), simplified from production
// meshers in two documented ways: no global self-intersection tests (the
// merge radius keeps fronts locally consistent) and subdomain boundaries are
// discretized independently rather than matched exactly. Neither affects
// what the parallel experiment consumes: per-subdomain element counts that
// respond sharply and locally to the moving crack.
package mesh

import "math"

// Vec3 is a point or vector in R^3.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a+b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a-b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s*a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns a×b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm returns |a|.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Dist returns |a-b|.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Norm() }

// TetVolume returns the signed volume of tetrahedron (a,b,c,d): positive
// when d lies on the side of triangle (a,b,c) that its normal
// (b-a)×(c-a) points toward.
func TetVolume(a, b, c, d Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// TriArea returns the area of triangle (a,b,c).
func TriArea(a, b, c Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Norm() / 2
}

// TriNormal returns the unit normal of triangle (a,b,c), or the zero vector
// for a degenerate triangle.
func TriNormal(a, b, c Vec3) Vec3 {
	n := b.Sub(a).Cross(c.Sub(a))
	l := n.Norm()
	if l == 0 {
		return Vec3{}
	}
	return n.Scale(1 / l)
}

// Box is an axis-aligned box.
type Box struct{ Lo, Hi Vec3 }

// Center returns the box center.
func (b Box) Center() Vec3 { return b.Lo.Add(b.Hi).Scale(0.5) }

// Size returns the box edge lengths.
func (b Box) Size() Vec3 { return b.Hi.Sub(b.Lo) }

// Volume returns the box volume.
func (b Box) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Contains reports whether p lies inside the box (inclusive).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Lo.X && p.X <= b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y <= b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z <= b.Hi.Z
}
