package core

import (
	"math"
	"testing"

	"transer/internal/kdtree"
	"transer/internal/testkit"
)

// TestSelectInstancesPropEquivalence cross-checks the grouped fast
// path against the naive per-instance reference on testkit-generated
// grid matrices: heavy duplication, labels assigned independently of
// vectors (so identical vectors carry conflicting labels — the
// nastiest tie-breaking regime), and signed zeros. The equivalence
// must hold verbatim in every regime, so no generator opt-ins apply.
func TestSelectInstancesPropEquivalence(t *testing.T) {
	testkit.Run(t, "selector/fast-path-equivalence", 24, func(pt *testkit.T) {
		xs, ys, xt, cfg := gridProblem(pt)
		got := SelectInstances(xs, ys, xt, cfg)
		want := referenceSelect(xs, ys, xt, cfg)
		if !testkit.EqualInts(got, want) {
			pt.Errorf("n=%d m=%d cfg=%+v: fast path kept %v, reference kept %v",
				len(xs), len(xs[0]), cfg, got, want)
		}
	})
}

// gridProblem draws a duplicate-heavy grid problem with labels
// assigned independently of vectors, plus a random selector config.
func gridProblem(pt *testkit.T) (xs [][]float64, ys []int, xt [][]float64, cfg Config) {
	n := 3*pt.Size + 12
	m := 2 + pt.Rng.Intn(3)
	xs = testkit.GridMatrix(pt.Rng, n, m)
	ys = make([]int, n)
	for i := range ys {
		ys[i] = pt.Rng.Intn(2)
	}
	// Force extra verbatim duplicates without syncing labels: the
	// fast path must agree with the reference even when duplicate
	// vectors disagree on their labels.
	for k := 0; k < n/3; k++ {
		xs[pt.Rng.Intn(n)] = xs[pt.Rng.Intn(n)]
	}
	xt = testkit.GridMatrix(pt.Rng, n/2+8, m)
	cfg = Config{
		K:          []int{3, 5, 7}[pt.Rng.Intn(3)],
		TC:         []float64{0.5, 0.7, 0.9}[pt.Rng.Intn(3)],
		TL:         []float64{0.5, 0.7, 0.9}[pt.Rng.Intn(3)],
		TP:         0.9,
		B:          3,
		EnableSimV: pt.Rng.Intn(2) == 0,
		TV:         0.7,
		Workers:    1 + pt.Rng.Intn(4),
	}
	return xs, ys, xt, cfg
}

// TestVectorKeyDistinguishesSignedZero pins the encoding detail the
// grouping relies on: +0.0 and -0.0 are different group keys (they
// have different bit patterns), while equal values always produce
// equal keys. The encoding itself now lives in kdtree.VectorKey; this
// pins the selector's use of it.
func TestVectorKeyDistinguishesSignedZero(t *testing.T) {
	pos := string(kdtree.VectorKey(nil, []float64{0}))
	neg := string(kdtree.VectorKey(nil, []float64{math.Copysign(0, -1)}))
	if pos == neg {
		t.Errorf("+0.0 and -0.0 encode to the same key")
	}
	if a, b := string(kdtree.VectorKey(nil, []float64{0.35})), string(kdtree.VectorKey(nil, []float64{0.35})); a != b {
		t.Errorf("equal values encode to different keys")
	}
	if len(kdtree.VectorKey(nil, []float64{0.35})) != 8 {
		t.Errorf("key must be the fixed 8-byte Float64bits encoding")
	}
}

// TestSelectInstancesSignedZeroGroups: rows identical except for the
// sign of a zero land in different duplicate groups, yet both groups
// must get the decision the reference implementation assigns them.
func TestSelectInstancesSignedZeroGroups(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xs := [][]float64{
		{0, 0.8}, {negZero, 0.8}, {0, 0.8}, {negZero, 0.8},
		{0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8},
	}
	ys := []int{1, 1, 1, 1, 1, 1, 1, 1}
	xt := xs
	cfg := DefaultConfig()
	got := SelectInstances(xs, ys, xt, cfg)
	want := referenceSelect(xs, ys, xt, cfg)
	if !testkit.EqualInts(got, want) {
		t.Fatalf("signed-zero groups: fast path kept %v, reference kept %v", got, want)
	}
}
