package mesh

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func unitBox() Box { return Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}} }

func TestVecOps(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) || b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("add/sub")
	}
	if a.Dot(b) != 32 {
		t.Fatal("dot")
	}
	if (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}) != (Vec3{0, 0, 1}) {
		t.Fatal("cross")
	}
	if math.Abs((Vec3{3, 4, 0}).Norm()-5) > 1e-12 {
		t.Fatal("norm")
	}
}

func TestTetVolumeAndArea(t *testing.T) {
	a, b, c, d := Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}
	if v := TetVolume(a, b, c, d); math.Abs(v-1.0/6) > 1e-12 {
		t.Fatalf("volume = %v", v)
	}
	if v := TetVolume(a, c, b, d); v >= 0 {
		t.Fatal("swapped orientation must flip sign")
	}
	if ar := TriArea(a, b, c); math.Abs(ar-0.5) > 1e-12 {
		t.Fatalf("area = %v", ar)
	}
	n := TriNormal(a, b, c)
	if math.Abs(n.Z-1) > 1e-12 {
		t.Fatalf("normal = %v", n)
	}
}

func TestBoxHelpers(t *testing.T) {
	b := unitBox()
	if b.Volume() != 1 || b.Center() != (Vec3{0.5, 0.5, 0.5}) {
		t.Fatal("volume/center")
	}
	if !b.Contains(Vec3{0.5, 0.5, 0.5}) || b.Contains(Vec3{1.5, 0, 0}) {
		t.Fatal("contains")
	}
}

func TestCrackSizing(t *testing.T) {
	c := Crack{Origin: Vec3{0, 0.5, 0.5}, Dir: Vec3{1, 0, 0}, Length: 0.5, Radius: 0.3, HMin: 0.02, HMax: 0.2}
	if h := c.H(Vec3{0.25, 0.5, 0.5}); h != 0.02 {
		t.Fatalf("h on crack = %v", h)
	}
	if h := c.H(Vec3{0.25, 0.5, 0.9}); h != 0.2 {
		t.Fatalf("h far = %v", h)
	}
	mid := c.H(Vec3{0.25, 0.5, 0.65})
	if mid <= 0.02 || mid >= 0.2 {
		t.Fatalf("h graded = %v", mid)
	}
	if c.Tip() != (Vec3{0.5, 0.5, 0.5}) {
		t.Fatalf("tip = %v", c.Tip())
	}
}

func TestEstimateElementsScalesWithSizing(t *testing.T) {
	b := unitBox()
	coarse := EstimateElements(b, Uniform{0.5}, 8)
	fine := EstimateElements(b, Uniform{0.25}, 8)
	if r := fine / coarse; math.Abs(r-8) > 0.01 {
		t.Fatalf("halving h should give 8x elements, got %vx", r)
	}
}

// checkMesh validates structural invariants of a generated mesh.
func checkMesh(t *testing.T, m *Mesh, b Box) {
	t.Helper()
	if m.NumTets() == 0 {
		t.Fatal("no tetrahedra generated")
	}
	var vol float64
	for _, tet := range m.Tets {
		for _, v := range tet {
			if int(v) >= len(m.Verts) {
				t.Fatalf("tet references missing vertex %d", v)
			}
			p := m.Verts[v]
			// Allow tiny epsilon excursions from arithmetic.
			eps := Vec3{1e-9, 1e-9, 1e-9}
			if !(Box{b.Lo.Sub(eps), b.Hi.Add(eps)}).Contains(p) {
				t.Fatalf("vertex %v outside box", p)
			}
		}
		v := TetVolume(m.Verts[tet[0]], m.Verts[tet[1]], m.Verts[tet[2]], m.Verts[tet[3]])
		if v <= 0 {
			t.Fatalf("non-positive tet volume %v", v)
		}
		vol += v
	}
	if vol > b.Volume()*1.2 {
		t.Fatalf("meshed volume %v exceeds box volume %v", vol, b.Volume())
	}
	if vol < b.Volume()*0.4 {
		t.Fatalf("meshed volume %v too small vs box %v (front collapsed?)", vol, b.Volume())
	}
}

func TestGenerateUniformCoarse(t *testing.T) {
	m := Generate(unitBox(), Uniform{0.5})
	checkMesh(t, m, unitBox())
	t.Logf("coarse: %d verts, %d tets, %d defects, %d steps", len(m.Verts), m.NumTets(), m.Defects, m.Steps)
}

func TestGenerateUniformFiner(t *testing.T) {
	coarse := Generate(unitBox(), Uniform{0.5})
	fine := Generate(unitBox(), Uniform{0.25})
	checkMesh(t, fine, unitBox())
	if fine.NumTets() <= coarse.NumTets() {
		t.Fatalf("finer sizing should give more tets: %d vs %d", fine.NumTets(), coarse.NumTets())
	}
	t.Logf("fine: %d tets (coarse %d)", fine.NumTets(), coarse.NumTets())
}

func TestGenerateCrackRefinesLocally(t *testing.T) {
	crack := Crack{Origin: Vec3{0, 0.5, 0.5}, Dir: Vec3{1, 0, 0}, Length: 0.6, Radius: 0.35, HMin: 0.08, HMax: 0.35}
	withCrack := Generate(unitBox(), crack)
	uniform := Generate(unitBox(), Uniform{0.35})
	checkMesh(t, withCrack, unitBox())
	if withCrack.NumTets() < 2*uniform.NumTets() {
		t.Fatalf("crack refinement should multiply element count: %d vs %d",
			withCrack.NumTets(), uniform.NumTets())
	}
	t.Logf("crack: %d tets vs uniform %d (defects %d)", withCrack.NumTets(), uniform.NumTets(), withCrack.Defects)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(unitBox(), Uniform{0.4})
	b := Generate(unitBox(), Uniform{0.4})
	if a.NumTets() != b.NumTets() || len(a.Verts) != len(b.Verts) {
		t.Fatalf("nondeterministic mesh: %d/%d vs %d/%d", a.NumTets(), len(a.Verts), b.NumTets(), len(b.Verts))
	}
	for i := range a.Tets {
		if a.Tets[i] != b.Tets[i] {
			t.Fatalf("tet %d differs", i)
		}
	}
}

// TestGeneratePinned holds the mesher to its recorded output on a uniform
// box and a crack-refined one: counts, plus an FNV-1a digest of every vertex
// coordinate's bits and every tet's vertex indices. A mismatch prints the
// fresh row.
func TestGeneratePinned(t *testing.T) {
	crack := Crack{Origin: Vec3{0, 0.5, 0.5}, Dir: Vec3{1, 0, 0}, Length: 0.6, Radius: 0.35, HMin: 0.08, HMax: 0.35}
	for _, c := range []struct {
		name  string
		field SizingField
		want  string
	}{
		{"uniform 0.25", Uniform{0.25}, "verts=133 tets=304 defects=348 steps=652 digest=0xfc69d3da0d65286"},
		{"crack", crack, "verts=1235 tets=1982 defects=3844 steps=5826 digest=0x45b77d0b9f393eb5"},
	} {
		m := Generate(unitBox(), c.field)
		h := fnv.New64a()
		for _, v := range m.Verts {
			binary.Write(h, binary.LittleEndian, [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)})
		}
		binary.Write(h, binary.LittleEndian, m.Tets)
		got := fmt.Sprintf("verts=%d tets=%d defects=%d steps=%d digest=%#x",
			len(m.Verts), m.NumTets(), m.Defects, m.Steps, h.Sum64())
		if got != c.want {
			t.Errorf("%s: got %q, pinned %q", c.name, got, c.want)
		}
	}
}

func TestDecompose(t *testing.T) {
	domain := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{4, 2, 1}}
	subs := Decompose(domain, 4, 2, 1)
	if len(subs) != 8 {
		t.Fatalf("subdomains = %d", len(subs))
	}
	var vol float64
	for _, s := range subs {
		vol += s.Volume()
	}
	if math.Abs(vol-domain.Volume()) > 1e-9 {
		t.Fatalf("decomposition loses volume: %v vs %v", vol, domain.Volume())
	}
	if subs[0].Lo != domain.Lo {
		t.Fatal("first subdomain misplaced")
	}
	nb := Neighbors(4, 2, 1)
	// 4x2x1 grid: x-edges 3*2=6, y-edges 4*1=4, z-edges 0 => 10.
	if len(nb) != 10 {
		t.Fatalf("neighbor pairs = %d", len(nb))
	}
}

func TestSameOrientation(t *testing.T) {
	a := [3]int32{1, 2, 3}
	if !sameOrientation(a, [3]int32{2, 3, 1}) || !sameOrientation(a, [3]int32{3, 1, 2}) {
		t.Fatal("rotations preserve orientation")
	}
	if sameOrientation(a, [3]int32{1, 3, 2}) || sameOrientation(a, [3]int32{2, 1, 3}) {
		t.Fatal("swaps reverse orientation")
	}
}

// TestEstimatorTracksMesher: the analytic element estimator must stay
// within a reasonable factor of the real mesher's output across sizes (the
// mesh experiment's -real flag depends on the two agreeing in shape).
func TestEstimatorTracksMesher(t *testing.T) {
	for _, h := range []float64{0.5, 0.33, 0.25} {
		m := Generate(unitBox(), Uniform{h})
		est := EstimateElements(unitBox(), Uniform{h}, 8)
		ratio := float64(m.NumTets()) / est
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("h=%v: mesher %d vs estimate %.0f (ratio %.2f)", h, m.NumTets(), est, ratio)
		}
	}
}

// TestMesherFillFraction: the mesher must fill most of the box (voids from
// abandoned fronts stay minor).
func TestMesherFillFraction(t *testing.T) {
	m := Generate(unitBox(), Uniform{0.3})
	var vol float64
	for _, tet := range m.Tets {
		vol += TetVolume(m.Verts[tet[0]], m.Verts[tet[1]], m.Verts[tet[2]], m.Verts[tet[3]])
	}
	if vol < 0.55 || vol > 1.0001 {
		t.Fatalf("fill fraction %.2f", vol)
	}
	t.Logf("fill fraction %.2f with %d tets, %d defects", vol, m.NumTets(), m.Defects)
}

// TestNoOverlapProperty: random sizing parameters never produce meshes
// whose total volume exceeds the box (overlap would).
func TestNoOverlapProperty(t *testing.T) {
	for _, hmin := range []float64{0.12, 0.2} {
		crack := Crack{Origin: Vec3{0, 0, 0}, Dir: Vec3{1, 0, 0}, Length: 0.6,
			Radius: 0.4, HMin: hmin, HMax: 0.45}
		m := Generate(unitBox(), crack)
		var vol float64
		for _, tet := range m.Tets {
			v := TetVolume(m.Verts[tet[0]], m.Verts[tet[1]], m.Verts[tet[2]], m.Verts[tet[3]])
			if v <= 0 {
				t.Fatalf("inverted tet (hmin=%v)", hmin)
			}
			vol += v
		}
		if vol > 1.0001 {
			t.Fatalf("hmin=%v: meshed volume %.3f exceeds box", hmin, vol)
		}
	}
}

func TestNonCubicDomain(t *testing.T) {
	b := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{2, 0.5, 1}}
	m := Generate(b, Uniform{0.25})
	checkMesh(t, m, b)
}
