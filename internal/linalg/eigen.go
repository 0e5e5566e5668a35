package linalg

import (
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi rotation method. Eigenpairs are
// returned sorted by descending eigenvalue; column j of the returned
// vectors matrix is the eigenvector of values[j]. The input is not
// modified.
//
// The Jacobi method is quadratically convergent and unconditionally
// stable for symmetric input, which covers every use in this
// repository (covariances and the symmetric TCA system after
// symmetrisation).
//
// The result is a pure function of the input bits: the sweep order,
// the rotation order and every element update (c*x - s*y, s*x + c*y)
// are fixed, so the layout below changes speed only. TCA solves a
// 256×256 system, where the kernel's memory layout dominates.
func EigenSym(a *Matrix) (values []float64, vectors *Matrix) {
	a.mustSquare()
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0)
	}
	// Both working matrices use a padded row stride: at a power-of-two
	// stride (2 KiB for n = 256) the column walk of every rotation maps
	// onto a handful of L1 sets.
	ld := n + 8
	m := make([]float64, n*ld)
	for i := 0; i < n; i++ {
		copy(m[i*ld:i*ld+n], a.Row(i))
	}
	// vt accumulates the eigenvectors transposed, one vector per row,
	// so a rotation updates two contiguous rows instead of two columns.
	vt := make([]float64, n*ld)
	for i := 0; i < n; i++ {
		vt[i*ld+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if maxAbsOffDiag(m, n, ld) < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*ld+q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := m[p*ld+p]
				aqq := m[q*ld+q]
				// Compute the Jacobi rotation that zeroes a_pq.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation to cols p and q of m, then to rows p
				// and q (which sees the updated column entries).
				for k := 0; k < n*ld; k += ld {
					akp := m[k+p]
					akq := m[k+q]
					m[k+p] = c*akp - s*akq
					m[k+q] = s*akp + c*akq
				}
				rotateRows(m[p*ld:p*ld+n], m[q*ld:q*ld+n], c, s)
				// Accumulate eigenvectors.
				rotateRows(vt[p*ld:p*ld+n], vt[q*ld:q*ld+n], c, s)
			}
		}
	}
	// Extract and sort by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{m[i*ld+i], i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for j, p := range pairs {
		values[j] = p.val
		vec := vt[p.idx*ld : p.idx*ld+n]
		for i, x := range vec {
			vectors.Data[i*n+j] = x
		}
	}
	return values, vectors
}

// rotateRows applies the plane rotation (c, s) to the row pair (x, y):
// x ← c·x − s·y, y ← s·x + c·y element by element.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

// maxAbsOffDiag returns the largest |a_ij| for i != j of an n×n
// matrix stored with row stride ld: the Jacobi convergence criterion.
func maxAbsOffDiag(m []float64, n, ld int) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		for j, x := range m[i*ld : i*ld+n] {
			if i == j {
				continue
			}
			if a := math.Abs(x); a > best {
				best = a
			}
		}
	}
	return best
}

// SymPow returns Aᵖ for a symmetric positive semi-definite A computed
// through its eigendecomposition: Q diag(λᵖ) Qᵀ. Eigenvalues below eps
// are clamped to eps before the power is applied, which makes negative
// powers (inverse square roots) well defined on rank-deficient
// covariances.
func SymPow(a *Matrix, p, eps float64) *Matrix {
	vals, q := EigenSym(a)
	n := a.Rows
	d := NewMatrix(n, n)
	for i, v := range vals {
		if v < eps {
			v = eps
		}
		d.Set(i, i, math.Pow(v, p))
	}
	return q.Mul(d).Mul(q.T())
}

// TopEigenvectors returns the k eigenvectors (as matrix columns) with
// the largest eigenvalues of the symmetric matrix a, together with the
// eigenvalues.
func TopEigenvectors(a *Matrix, k int) ([]float64, *Matrix) {
	vals, vecs := EigenSym(a)
	if k > len(vals) {
		k = len(vals)
	}
	out := NewMatrix(a.Rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < a.Rows; i++ {
			out.Set(i, j, vecs.At(i, j))
		}
	}
	return vals[:k], out
}
