// Package solver implements the loosely synchronous substrate of the
// paper's target applications: sparse iterative field solvers (§1, §6).
// It provides a CSR sparse matrix and the weighted Jacobi sweep, enough to
// drive the hybrid end-to-end experiment's solve phases with real numerical
// work and residual reductions.
package solver

import "math"

// CSR is a square sparse matrix in compressed sparse row form.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// MulVec computes y = A x.
func (m *CSR) MulVec(x, y []float64) {
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
}

// Diag extracts the diagonal of A (0 where absent).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == i {
				d[i] = m.Val[k]
			}
		}
	}
	return d
}

// Laplacian1D builds the n x n tridiagonal Poisson matrix
// (2 on the diagonal, -1 off) — the classic model problem.
func Laplacian1D(n int) *CSR {
	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		m.RowPtr[i] = int32(len(m.Val))
		if i > 0 {
			m.Col = append(m.Col, int32(i-1))
			m.Val = append(m.Val, -1)
		}
		m.Col = append(m.Col, int32(i))
		m.Val = append(m.Val, 2)
		if i+1 < n {
			m.Col = append(m.Col, int32(i+1))
			m.Val = append(m.Val, -1)
		}
	}
	m.RowPtr[n] = int32(len(m.Val))
	return m
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Residual computes r = b - A x and returns ||r||2.
func Residual(a *CSR, x, b, r []float64) float64 {
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return Norm2(r)
}

// JacobiSweep performs one weighted Jacobi relaxation
// x' = x + w D^-1 (b - A x), writing into x, and returns ||b - A x||2 as of
// the start of the sweep (the residual a solver would reduce globally).
func JacobiSweep(a *CSR, diag, x, b, scratch []float64, w float64) float64 {
	res := Residual(a, x, b, scratch)
	for i := range x {
		if diag[i] != 0 {
			x[i] += w * scratch[i] / diag[i]
		}
	}
	return res
}
