package solver

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaplacian1DStructure(t *testing.T) {
	a := Laplacian1D(5)
	if a.N != 5 || len(a.Val) != 13 {
		t.Fatalf("n=%d nnz=%d", a.N, len(a.Val))
	}
	d := a.Diag()
	for _, v := range d {
		if v != 2 {
			t.Fatalf("diag = %v", d)
		}
	}
	// A * ones: interior rows sum to 0, boundary rows to 1.
	ones := []float64{1, 1, 1, 1, 1}
	y := make([]float64, 5)
	a.MulVec(ones, y)
	want := []float64{1, 0, 0, 0, 1}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("A*1 = %v", y)
		}
	}
}

func TestJacobiConverges(t *testing.T) {
	a := Laplacian1D(32)
	b := make([]float64, 32)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 32)
	diag, scratch := a.Diag(), make([]float64, 32)
	iters, res := 0, math.Inf(1)
	for ; res > 1e-8*Norm2(b) && iters < 100000; iters++ {
		res = JacobiSweep(a, diag, x, b, scratch, 0.8)
	}
	if res > 1e-8*Norm2(b) {
		t.Fatalf("jacobi residual %v after %d iters", res, iters)
	}
	// Verify the solve: A x ≈ b.
	y := make([]float64, 32)
	a.MulVec(x, y)
	for i := range y {
		if math.Abs(y[i]-b[i]) > 1e-6 {
			t.Fatalf("Ax[%d] = %v", i, y[i])
		}
	}
}

// TestJacobiResidualMonotone: for the weighted Jacobi on the SPD model
// problem, residuals decrease monotonically from any start.
func TestJacobiResidualMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		a := Laplacian1D(16)
		diag := a.Diag()
		x := make([]float64, 16)
		b := make([]float64, 16)
		for i := range x {
			if i < len(raw) {
				x[i] = float64(raw[i]) / 8
			}
			b[i] = 1
		}
		scratch := make([]float64, 16)
		prev := math.Inf(1)
		for it := 0; it < 50; it++ {
			res := JacobiSweep(a, diag, x, b, scratch, 0.66)
			if res > prev*(1+1e-12) {
				return false
			}
			prev = res
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualAndNorm(t *testing.T) {
	a := Laplacian1D(3)
	x := []float64{1, 0, 0}
	b := []float64{2, -1, 0}
	r := make([]float64, 3)
	// A x = (2,-1,0) exactly: residual 0.
	if res := Residual(a, x, b, r); res != 0 {
		t.Fatalf("residual = %v", res)
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("norm")
	}
}
