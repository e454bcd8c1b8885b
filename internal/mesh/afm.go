package mesh

import (
	"container/heap"
	"math"
	"sort"
)

// Mesh is the output of the advancing front mesher.
type Mesh struct {
	Verts []Vec3
	Tets  [][4]int32
	// Defects counts front faces that had to be abandoned because no valid
	// apex existed (small voids; zero for well-sized inputs).
	Defects int
	// Steps is the number of advancing iterations taken.
	Steps int
}

// NumTets returns the tetrahedron count — the experiment's workload unit.
func (m *Mesh) NumTets() int { return len(m.Tets) }

const (
	// apexFactor scales the sizing field's h into the apex offset distance.
	apexFactor = 0.8
	// shortApexFactor is the last-resort apex offset, 0.4*apexFactor as a
	// float64 product: the constant expression would fold to exactly 0.32.
	shortApexFactor = 0.32000000000000006
	// snapFactor scales h into the radius within which an ideal apex snaps
	// to an existing active front vertex.
	snapFactor = 0.65
	// minQuality rejects tets whose volume is below minQuality * h^3/6.
	minQuality = 0.02
)

// Generate meshes the box with the sizing field using an advancing front:
// the box surface is triangulated on a conforming lattice, every surface
// triangle (normal inward) seeds the front, and fronts advance and cancel
// until the volume is filled.
func Generate(b Box, f SizingField) *Mesh {
	m := newMesher(b, f)
	m.seedSurface()
	m.advance()
	return &Mesh{Verts: m.verts, Tets: m.tets, Defects: m.defects, Steps: m.steps}
}

type faceKey [3]int32 // sorted vertex triple

type face struct {
	v    [3]int32 // oriented: normal (v1-v0)x(v2-v0) points into unmeshed region
	area float64
	seq  uint64
	dead bool
}

type faceHeap []*face

func (h faceHeap) Len() int { return len(h) }
func (h faceHeap) Less(i, j int) bool {
	if h[i].area != h[j].area {
		return h[i].area < h[j].area
	}
	return h[i].seq < h[j].seq
}
func (h faceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *faceHeap) Push(x any)   { *h = append(*h, x.(*face)) }
func (h *faceHeap) Pop() any     { old := *h; n := len(old); f := old[n-1]; *h = old[:n-1]; return f }
func keyOf(a, b, c int32) faceKey {
	k := faceKey{a, b, c}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	return k
}

// sameOrientation reports whether oriented triples a and b (same vertex
// set) have equal winding.
func sameOrientation(a, b [3]int32) bool {
	// Rotate b so b[0] == a[0].
	for r := 0; r < 3; r++ {
		if b[0] == a[0] {
			break
		}
		b[0], b[1], b[2] = b[1], b[2], b[0]
	}
	return b[1] == a[1] && b[2] == a[2]
}

type mesher struct {
	box     Box
	sizing  SizingField
	verts   []Vec3
	tets    [][4]int32
	front   map[faceKey]*face
	heap    faceHeap
	seq     uint64
	defects int
	steps   int

	// Active-vertex spatial hash: vertices currently referenced by front
	// faces, bucketed at cellSize.
	cellSize float64
	cells    map[[3]int32][]int32
	refs     map[int32]int

	// Tet occupancy hash: tets indexed by every cell their bounding box
	// overlaps, used to reject candidates that would overlap meshed space.
	tetCells map[[3]int32][]int32
}

func newMesher(b Box, f SizingField) *mesher {
	// Cell size: an upper bound on snapping radius. Sample the field.
	maxH := 0.0
	for _, p := range []Vec3{b.Lo, b.Hi, b.Center()} {
		maxH = math.Max(maxH, f.H(p))
	}
	return &mesher{
		box:      b,
		sizing:   f,
		front:    make(map[faceKey]*face),
		cellSize: maxH,
		cells:    make(map[[3]int32][]int32),
		refs:     make(map[int32]int),
		tetCells: make(map[[3]int32][]int32),
	}
}

// pointInTet reports whether p lies strictly inside tet t (boundary points,
// e.g. shared vertices and faces of adjacent tets, do not count).
func (m *mesher) pointInTet(p Vec3, t [4]int32) bool {
	a, b, c, d := m.verts[t[0]], m.verts[t[1]], m.verts[t[2]], m.verts[t[3]]
	vol := TetVolume(a, b, c, d)
	eps := 1e-7 * vol
	if TetVolume(p, b, c, d) < eps {
		return false
	}
	if TetVolume(a, p, c, d) < eps {
		return false
	}
	if TetVolume(a, b, p, d) < eps {
		return false
	}
	if TetVolume(a, b, c, p) < eps {
		return false
	}
	return true
}

// tetBBoxCells calls fn for every occupancy cell a tet's bounding box
// overlaps.
func (m *mesher) tetBBoxCells(t [4]int32, fn func(c [3]int32)) {
	lo := m.verts[t[0]]
	hi := lo
	for _, v := range t[1:] {
		p := m.verts[v]
		lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
	}
	cl, ch := m.cellOf(lo), m.cellOf(hi)
	for x := cl[0]; x <= ch[0]; x++ {
		for y := cl[1]; y <= ch[1]; y++ {
			for z := cl[2]; z <= ch[2]; z++ {
				fn([3]int32{x, y, z})
			}
		}
	}
}

// occupied reports whether p lies inside any existing tetrahedron near it.
func (m *mesher) occupied(p Vec3) bool {
	for _, ti := range m.tetCells[m.cellOf(p)] {
		if m.pointInTet(p, m.tets[ti]) {
			return true
		}
	}
	return false
}

// overlapsMesh heuristically tests whether candidate tet cand interpenetrates
// already meshed space: a stencil of interior sample points of cand must all
// be free, and no nearby existing tet's centroid may lie inside cand.
// (Cheaper than exact face-face intersection; combined with the front
// orientation rules it keeps meshes overlap-free in practice — the test
// suite asserts total volume never exceeds the box.)
func (m *mesher) overlapsMesh(cand [4]int32) bool {
	a, b, c, d := m.verts[cand[0]], m.verts[cand[1]], m.verts[cand[2]], m.verts[cand[3]]
	g := a.Add(b).Add(c).Add(d).Scale(0.25)
	samples := []Vec3{g}
	for _, v := range []Vec3{a, b, c, d} {
		samples = append(samples, g.Add(v.Sub(g).Scale(0.55)), g.Add(v.Sub(g).Scale(0.9)))
	}
	// Face centroids nudged inward.
	faces := [4][3]Vec3{{b, c, d}, {a, c, d}, {a, b, d}, {a, b, c}}
	for _, fc := range faces {
		fg := fc[0].Add(fc[1]).Add(fc[2]).Scale(1.0 / 3)
		samples = append(samples, fg.Add(g.Sub(fg).Scale(0.1)))
	}
	for _, p := range samples {
		if m.occupied(p) {
			return true
		}
	}
	// Symmetric: existing tets poking into the candidate.
	seen := map[int32]bool{}
	overlap := false
	m.tetBBoxCells(cand, func(cell [3]int32) {
		if overlap {
			return
		}
		for _, ti := range m.tetCells[cell] {
			if seen[ti] {
				continue
			}
			seen[ti] = true
			t := m.tets[ti]
			tg := m.verts[t[0]].Add(m.verts[t[1]]).Add(m.verts[t[2]]).Add(m.verts[t[3]]).Scale(0.25)
			if m.pointInTetVerts(tg, a, b, c, d) {
				overlap = true
				return
			}
		}
	})
	return overlap
}

// pointInTetVerts is pointInTet with explicit vertex coordinates.
func (m *mesher) pointInTetVerts(p, a, b, c, d Vec3) bool {
	vol := TetVolume(a, b, c, d)
	eps := 1e-7 * vol
	return TetVolume(p, b, c, d) >= eps &&
		TetVolume(a, p, c, d) >= eps &&
		TetVolume(a, b, p, d) >= eps &&
		TetVolume(a, b, c, p) >= eps
}

// registerTet adds the latest tet to the occupancy hash.
func (m *mesher) registerTet(ti int32) {
	m.tetBBoxCells(m.tets[ti], func(c [3]int32) {
		m.tetCells[c] = append(m.tetCells[c], ti)
	})
}

func (m *mesher) cellOf(p Vec3) [3]int32 {
	return [3]int32{
		int32(math.Floor(p.X / m.cellSize)),
		int32(math.Floor(p.Y / m.cellSize)),
		int32(math.Floor(p.Z / m.cellSize)),
	}
}

func (m *mesher) retain(v int32) {
	if m.refs[v] == 0 {
		c := m.cellOf(m.verts[v])
		m.cells[c] = append(m.cells[c], v)
	}
	m.refs[v]++
}

func (m *mesher) release(v int32) {
	m.refs[v]--
	if m.refs[v] > 0 {
		return
	}
	delete(m.refs, v)
	c := m.cellOf(m.verts[v])
	list := m.cells[c]
	for i, x := range list {
		if x == v {
			list[i] = list[len(list)-1]
			m.cells[c] = list[:len(list)-1]
			break
		}
	}
	if len(m.cells[c]) == 0 {
		delete(m.cells, c)
	}
}

// nearActive returns active front vertices within radius of p, nearest
// first (deterministic: distance then index order).
func (m *mesher) nearActive(p Vec3, radius float64) []int32 {
	c := m.cellOf(p)
	span := int32(math.Ceil(radius/m.cellSize)) + 1
	type cand struct {
		v int32
		d float64
	}
	var out []cand
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			for dz := -span; dz <= span; dz++ {
				for _, v := range m.cells[[3]int32{c[0] + dx, c[1] + dy, c[2] + dz}] {
					if d := m.verts[v].Dist(p); d <= radius {
						out = append(out, cand{v, d})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].v < out[j].v
	})
	vs := make([]int32, len(out))
	for i, c := range out {
		vs[i] = c.v
	}
	return vs
}

// addFace inserts an oriented face into the front, cancelling against an
// opposite-oriented twin.
func (m *mesher) addFace(v [3]int32) {
	k := keyOf(v[0], v[1], v[2])
	if tw, ok := m.front[k]; ok {
		if sameOrientation(tw.v, v) {
			// Two fronts claim the same region from the same side: a local
			// tangle. Keep one; count it.
			m.defects++
			return
		}
		// Opposite twin: the gap between two fronts closed here.
		tw.dead = true
		delete(m.front, k)
		for _, x := range tw.v {
			m.release(x)
		}
		return
	}
	f := &face{v: v, area: TriArea(m.verts[v[0]], m.verts[v[1]], m.verts[v[2]])}
	m.seq++
	f.seq = m.seq
	m.front[k] = f
	heap.Push(&m.heap, f)
	for _, x := range v {
		m.retain(x)
	}
}

func (m *mesher) removeFace(f *face) {
	f.dead = true
	delete(m.front, keyOf(f.v[0], f.v[1], f.v[2]))
	for _, x := range f.v {
		m.release(x)
	}
}

// seedSurface triangulates the box surface on a conforming lattice whose
// resolution follows the finest sizing found on the surface, and seeds the
// front with inward-pointing triangles.
func (m *mesher) seedSurface() {
	size := m.box.Size()
	// Finest h on the surface governs the lattice (conformity across the
	// six faces requires a single lattice).
	minH := math.Inf(1)
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			for _, p := range surfaceSamples(m.box, i, j) {
				minH = math.Min(minH, m.sizing.H(p))
			}
		}
	}
	n := func(extent float64) int {
		k := int(math.Ceil(extent / minH))
		if k < 1 {
			k = 1
		}
		return k
	}
	nx, ny, nz := n(size.X), n(size.Y), n(size.Z)
	// Lattice vertices on the surface only.
	idx := make(map[[3]int]int32)
	vat := func(i, j, k int) int32 {
		key := [3]int{i, j, k}
		if v, ok := idx[key]; ok {
			return v
		}
		p := Vec3{
			m.box.Lo.X + size.X*float64(i)/float64(nx),
			m.box.Lo.Y + size.Y*float64(j)/float64(ny),
			m.box.Lo.Z + size.Z*float64(k)/float64(nz),
		}
		v := int32(len(m.verts))
		m.verts = append(m.verts, p)
		idx[key] = v
		return v
	}
	// quad emits two triangles for the surface quad (a,b,c,d) wound so that
	// the normal points inward; inward is supplied per box face.
	quad := func(a, b, c, d int32) {
		m.addFace([3]int32{a, b, c})
		m.addFace([3]int32{a, c, d})
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			// z = lo (inward +z): counterclockwise seen from +z.
			quad(vat(i, j, 0), vat(i+1, j, 0), vat(i+1, j+1, 0), vat(i, j+1, 0))
			// z = hi (inward -z): reversed.
			quad(vat(i, j, nz), vat(i, j+1, nz), vat(i+1, j+1, nz), vat(i+1, j, nz))
		}
	}
	for i := 0; i < nx; i++ {
		for k := 0; k < nz; k++ {
			// y = lo (inward +y).
			quad(vat(i, 0, k), vat(i, 0, k+1), vat(i+1, 0, k+1), vat(i+1, 0, k))
			// y = hi (inward -y).
			quad(vat(i, ny, k), vat(i+1, ny, k), vat(i+1, ny, k+1), vat(i, ny, k+1))
		}
	}
	for j := 0; j < ny; j++ {
		for k := 0; k < nz; k++ {
			// x = lo (inward +x).
			quad(vat(0, j, k), vat(0, j+1, k), vat(0, j+1, k+1), vat(0, j, k+1))
			// x = hi (inward -x).
			quad(vat(nx, j, k), vat(nx, j, k+1), vat(nx, j+1, k+1), vat(nx, j+1, k))
		}
	}
}

// surfaceSamples returns sample points on the box surface for lattice-size
// estimation.
func surfaceSamples(b Box, i, j int) []Vec3 {
	s := b.Size()
	u, v := float64(i)/4, float64(j)/4
	return []Vec3{
		{b.Lo.X + u*s.X, b.Lo.Y + v*s.Y, b.Lo.Z},
		{b.Lo.X + u*s.X, b.Lo.Y + v*s.Y, b.Hi.Z},
		{b.Lo.X + u*s.X, b.Lo.Y, b.Lo.Z + v*s.Z},
		{b.Lo.X + u*s.X, b.Hi.Y, b.Lo.Z + v*s.Z},
		{b.Lo.X, b.Lo.Y + u*s.Y, b.Lo.Z + v*s.Z},
		{b.Hi.X, b.Lo.Y + u*s.Y, b.Lo.Z + v*s.Z},
	}
}

// advance runs the main loop: smallest front face first, place or snap an
// apex, build the tetrahedron, update the front.
func (m *mesher) advance() {
	maxSteps := 80*int(EstimateElements(m.box, m.sizing, 8)) + 200000
	for len(m.front) > 0 && m.steps < maxSteps {
		f := heap.Pop(&m.heap).(*face)
		if f.dead {
			continue
		}
		m.steps++
		if !m.buildTet(f) {
			m.defects++
			m.removeFace(f)
		}
	}
	// Any faces left when the step budget runs out are defects.
	m.defects += len(m.front)
}

// buildTet attempts to close face f with an apex vertex. It returns false
// if no candidate yields an acceptable tetrahedron.
func (m *mesher) buildTet(f *face) bool {
	a, b, c := m.verts[f.v[0]], m.verts[f.v[1]], m.verts[f.v[2]]
	g := a.Add(b).Add(c).Scale(1.0 / 3)
	n := TriNormal(a, b, c)
	h := m.sizing.H(g)
	ideal := g.Add(n.Scale(apexFactor * h))

	// Candidates: nearby active front vertices (nearest first), then the
	// fresh ideal point if it is inside the domain.
	cands := m.nearActive(ideal, snapFactor*h)
	// A second, wider net catches closing fronts.
	if len(cands) == 0 {
		cands = m.nearActive(ideal, 1.3*h)
	}
	minVol := minQuality * h * h * h / 6
	try := func(apex int32) bool {
		if apex == f.v[0] || apex == f.v[1] || apex == f.v[2] {
			return false
		}
		p := m.verts[apex]
		if TetVolume(a, b, c, p) < minVol {
			return false
		}
		// Reject if any side face would duplicate an existing front face
		// with the same orientation (local tangle).
		for _, sf := range sideFaces(f.v, apex, m.verts) {
			k := keyOf(sf[0], sf[1], sf[2])
			if tw, ok := m.front[k]; ok && sameOrientation(tw.v, sf) {
				return false
			}
		}
		// Occupancy: the new tet must not overlap meshed space and must not
		// swallow an active front vertex.
		cand := [4]int32{f.v[0], f.v[1], f.v[2], apex}
		centroid := a.Add(b).Add(c).Add(p).Scale(0.25)
		if m.overlapsMesh(cand) {
			return false
		}
		maxEdge := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				maxEdge = math.Max(maxEdge, m.verts[cand[i]].Dist(m.verts[cand[j]]))
			}
		}
		for _, v := range m.nearActive(centroid, maxEdge) {
			if v == cand[0] || v == cand[1] || v == cand[2] || v == cand[3] {
				continue
			}
			if m.pointInTet(m.verts[v], cand) {
				return false
			}
		}
		m.emitTet(f, apex)
		return true
	}
	for _, v := range cands {
		if try(v) {
			return true
		}
	}
	if m.box.Contains(ideal) {
		// No snap: create a fresh vertex, unless it crowds an active vertex
		// (the candidate pass above would have used it).
		v := int32(len(m.verts))
		m.verts = append(m.verts, ideal)
		if try(v) {
			return true
		}
		m.verts = m.verts[:v] // roll back the unused vertex
	}
	// Last resort: a shorter fresh apex (half offset) for faces squeezed
	// near the boundary.
	short := g.Add(n.Scale(shortApexFactor * h))
	if m.box.Contains(short) {
		v := int32(len(m.verts))
		m.verts = append(m.verts, short)
		if try(v) {
			return true
		}
		m.verts = m.verts[:v]
	}
	return false
}

// sideFaces returns the three new faces of tet (f, apex), each oriented so
// its normal points away from the tetrahedron (into unmeshed space).
func sideFaces(fv [3]int32, apex int32, verts []Vec3) [3][3]int32 {
	var out [3][3]int32
	pairs := [3][2]int32{{fv[0], fv[1]}, {fv[1], fv[2]}, {fv[2], fv[0]}}
	for i, pr := range pairs {
		// Opposite vertex inside the tet is the remaining face vertex.
		opp := fv[(i+2)%3]
		tri := [3]int32{pr[0], pr[1], apex}
		nrm := verts[tri[1]].Sub(verts[tri[0]]).Cross(verts[tri[2]].Sub(verts[tri[0]]))
		if nrm.Dot(verts[opp].Sub(verts[tri[0]])) > 0 {
			tri[1], tri[2] = tri[2], tri[1]
		}
		out[i] = tri
	}
	return out
}

// emitTet records the tetrahedron and updates the front.
func (m *mesher) emitTet(f *face, apex int32) {
	m.tets = append(m.tets, [4]int32{f.v[0], f.v[1], f.v[2], apex})
	m.registerTet(int32(len(m.tets) - 1))
	sides := sideFaces(f.v, apex, m.verts)
	m.removeFace(f)
	for _, sf := range sides {
		m.addFace(sf)
	}
}
