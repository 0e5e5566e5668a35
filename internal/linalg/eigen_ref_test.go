package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigenSymRef is the straightforward At/Set cyclic Jacobi solver that
// EigenSym's tuned kernel must reproduce bit for bit: same sweeps, same
// rotation order and the same per-element arithmetic. It shares only
// the convergence test with EigenSym.
func eigenSymRef(a *Matrix) (values []float64, vectors *Matrix) {
	a.mustSquare()
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0)
	}
	m := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := maxAbsOffDiag(m.Data, n, n)
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := m.At(p, p)
				aqq := m.At(q, q)
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
				// Apply rotation to rows/cols p and q of m.
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
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
		pairs[i] = pair{m.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for j, p := range pairs {
		values[j] = p.val
		for i := 0; i < n; i++ {
			vectors.Set(i, j, v.At(i, p.idx))
		}
	}
	return values, vectors
}

// randomSym returns a random symmetric n×n matrix.
func randomSym(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// ulpAsymmetric nudges every third upper-triangle entry one ulp away
// from its mirror, the way accumulated round-off leaves matrix
// products that are symmetric in value but not in bits.
func ulpAsymmetric(a *Matrix) *Matrix {
	out := a.Clone()
	for i := 0; i < a.Rows; i++ {
		for j := i + 1; j < a.Cols; j++ {
			if (i+j)%3 == 0 {
				out.Set(i, j, math.Nextafter(out.At(i, j), math.Inf(1)))
			}
		}
	}
	return out
}

// lowRankCov returns the covariance of fewer than n samples: a
// rank-deficient matrix with zero eigenvalues, the SymPow clamping
// case.
func lowRankCov(rng *rand.Rand, n int) *Matrix {
	x := NewMatrix(n/2+1, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return Covariance(x, 0)
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestEigenSymMatchesReference: EigenSym returns exactly the bits of
// the reference solver, for sizes from a scalar up to TCA's 256
// landmarks, on symmetric, one-ulp asymmetric and rank-deficient input.
func TestEigenSymMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 17, 64, 130, 256}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, n := range sizes {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			sym := randomSym(rng, n)
			inputs := []struct {
				kind string
				a    *Matrix
			}{
				{"symmetric", sym},
				{"ulp-asymmetric", ulpAsymmetric(sym)},
				{"low-rank-cov", lowRankCov(rng, n)},
			}
			if n > 64 {
				// A reference solve at n = 256 takes most of a second:
				// each seed checks one input kind.
				inputs = inputs[int(seed)%len(inputs) : int(seed)%len(inputs)+1]
			}
			for _, in := range inputs {
				kind, a := in.kind, in.a
				before := a.Clone()
				wantVals, wantVecs := eigenSymRef(a)
				gotVals, gotVecs := EigenSym(a)
				for i := range wantVals {
					if !sameBits(gotVals[i], wantVals[i]) {
						t.Fatalf("n=%d seed=%d %s: value %d = %v, want %v", n, seed, kind, i, gotVals[i], wantVals[i])
					}
				}
				if gotVecs.Rows != n || gotVecs.Cols != n {
					t.Fatalf("n=%d: vectors %dx%d", n, gotVecs.Rows, gotVecs.Cols)
				}
				for i := range wantVecs.Data {
					if !sameBits(gotVecs.Data[i], wantVecs.Data[i]) {
						t.Fatalf("n=%d seed=%d %s: vector element (%d,%d) = %v, want %v",
							n, seed, kind, i/n, i%n, gotVecs.Data[i], wantVecs.Data[i])
					}
				}
				for i := range a.Data {
					if !sameBits(a.Data[i], before.Data[i]) {
						t.Fatalf("n=%d %s: EigenSym modified its input", n, kind)
					}
				}
			}
		}
	}
}

// eigenSink keeps benchmarked results alive.
var eigenSink []float64

// BenchmarkEigenSym256 times one solve at TCA's default landmark count.
func BenchmarkEigenSym256(b *testing.B) {
	a := randomSym(rand.New(rand.NewSource(1)), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eigenSink, _ = EigenSym(a)
	}
}
