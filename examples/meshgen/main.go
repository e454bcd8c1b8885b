// Meshgen: drive the real 3-D advancing front tetrahedral mesher directly —
// first on a uniform sizing field, then with a crack-refined field — and
// show how the moving crack concentrates elements (and therefore
// computational weight) in a few subdomains, which is exactly the load
// balancing problem the PREMA experiments quantify.
//
// Run: go run ./examples/meshgen
package main

import (
	"fmt"

	"prema/internal/mesh"
)

func main() {
	domain := mesh.Box{Lo: mesh.Vec3{X: 0, Y: 0, Z: 0}, Hi: mesh.Vec3{X: 2, Y: 1, Z: 1}}

	fmt.Println("uniform sizing, whole domain:")
	m := mesh.Generate(domain, mesh.Uniform{Size: 0.25})
	fmt.Printf("  h=0.25: %6d vertices, %6d tets (%d defects)\n", len(m.Verts), m.NumTets(), m.Defects)

	// A crack growing along the domain diagonal.
	diag := domain.Size()
	crack := mesh.Crack{
		Origin: domain.Lo,
		Dir:    diag.Scale(1 / diag.Norm()),
		Length: 0.5 * diag.Norm(),
		Radius: 0.3,
		HMin:   0.06,
		HMax:   0.3,
	}
	fmt.Printf("\ncrack to 50%% of the diagonal (tip at %.2f,%.2f,%.2f):\n",
		crack.Tip().X, crack.Tip().Y, crack.Tip().Z)

	// Decompose into 4x2x2 subdomains and mesh each independently — the
	// units of work the parallel mesher distributes as mobile objects.
	subs := mesh.Decompose(domain, 4, 2, 2)
	maxTets, minTets := 0, 1<<60
	for i, b := range subs {
		sm := mesh.Generate(b, crack)
		n := sm.NumTets()
		if n > maxTets {
			maxTets = n
		}
		if n < minTets {
			minTets = n
		}
		bar := ""
		for j := 0; j < n/50; j++ {
			bar += "#"
		}
		fmt.Printf("  subdomain %2d (center %.2f,%.2f,%.2f): %5d tets %s\n",
			i, b.Center().X, b.Center().Y, b.Center().Z, n, bar)
	}
	fmt.Printf("\nheaviest subdomain / lightest = %.1fx — and the crack moves "+
		"every iteration.\nThat ratio is the load imbalance the runtime has to fix; "+
		"run cmd/meshgen for the full experiment.\n", float64(maxTets)/float64(minTets))
}
