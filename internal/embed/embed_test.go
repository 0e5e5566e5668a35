package embed

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestWordDeterministic(t *testing.T) {
	e := New(16, 0, 1)
	a := e.Word("smith")
	b := e.Word("smith")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same word embedded differently at %d", i)
		}
	}
}

func TestWordUnitNorm(t *testing.T) {
	e := New(16, 0, 1)
	v := e.Word("kilmarnock")
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-9 {
		t.Errorf("word vector norm %v, want 1", math.Sqrt(n))
	}
}

func TestOOVBehaviourWordLevel(t *testing.T) {
	// Pure word hashing: a one-character typo yields an unrelated
	// vector (the FastText-OOV failure mode DR reproduces).
	e := New(32, 0, 1)
	cos := e.Cosine("smith", "smyth")
	if math.Abs(cos) > 0.5 {
		t.Errorf("word-level embedding should not relate typo variants, cosine %v", cos)
	}
}

func TestSubwordSharing(t *testing.T) {
	// With subword blending, typo variants become related.
	word := New(32, 0, 1)
	sub := New(32, 1, 1)
	cw := word.Cosine("smith", "smyth")
	cs := sub.Cosine("smith", "smyth")
	if cs <= cw {
		t.Errorf("subword cosine %v should exceed word-level %v", cs, cw)
	}
}

func TestValueAveragesTokens(t *testing.T) {
	e := New(8, 0, 1)
	v := e.Value("john smith")
	j := e.Word("john")
	s := e.Word("smith")
	for i := range v {
		want := (j[i] + s[i]) / 2
		if math.Abs(v[i]-want) > 1e-12 {
			t.Fatalf("value embedding is not the token mean at %d", i)
		}
	}
	zero := e.Value("")
	for _, x := range zero {
		if x != 0 {
			t.Errorf("empty value should embed to zero")
		}
	}
}

func TestPairFeatures(t *testing.T) {
	e := New(8, 0, 1)
	f := e.PairFeatures("john smith", "john smith")
	if len(f) != 9 {
		t.Fatalf("pair feature width %d, want dim+1", len(f))
	}
	for i := 0; i < 8; i++ {
		if f[i] != 0 {
			t.Errorf("identical values should have zero diff at %d", i)
		}
	}
	if math.Abs(f[8]-1) > 1e-9 {
		t.Errorf("identical values should have cosine feature 1, got %v", f[8])
	}
	// Empty pair: zero vector diff and 0 cosine feature.
	f = e.PairFeatures("", "")
	if f[8] != 0 {
		t.Errorf("empty pair cosine feature = %v, want 0", f[8])
	}
}

func TestCosineRange(t *testing.T) {
	e := New(16, 0.5, 2)
	prop := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		c := e.Cosine(a, b)
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("cosine out of range: %v", err)
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-positive dim")
		}
	}()
	New(0, 0, 1)
}

// TestReturnedVectorsAreCallersOwn: mutating a vector returned by Word
// or Value must not change what a later call returns.
func TestReturnedVectorsAreCallersOwn(t *testing.T) {
	for _, sub := range []float64{0, 0.5} {
		e := New(8, sub, 3)
		want := New(8, sub, 3)
		w := e.Word("smith")
		v := e.Value("john smith")
		for i := range w {
			w[i] = 42
		}
		for i := range v {
			v[i] = 42
		}
		if !sameBits(e.Word("smith"), want.Word("smith")) {
			t.Errorf("subword %v: Word result changed after the caller mutated an earlier one", sub)
		}
		if !sameBits(e.Value("john smith"), want.Value("john smith")) {
			t.Errorf("subword %v: Value result changed after the caller mutated an earlier one", sub)
		}
	}
}

// TestMemoMatchesPairFeatures: a memo appends exactly the bits of
// PairFeatures, on first use and on repeats, with and without
// subword blending.
func TestMemoMatchesPairFeatures(t *testing.T) {
	values := []string{"john smith", "jon smith", "", "smith", "j. smith-jones", "john smith"}
	for _, sub := range []float64{0, 0.5} {
		e := New(8, sub, 7)
		m := e.Memo()
		for round := 0; round < 2; round++ {
			for _, a := range values {
				for _, b := range values {
					got := m.AppendPairFeatures([]float64{-1}, a, b)
					if got[0] != -1 || !sameBits(got[1:], e.PairFeatures(a, b)) {
						t.Fatalf("subword %v round %d: memo features of (%q, %q) differ", sub, round, a, b)
					}
				}
			}
		}
	}
}

// TestPairFeaturesConcurrent: an Embedder is shared across goroutines
// (run under -race); every goroutine must see the serial result.
func TestPairFeaturesConcurrent(t *testing.T) {
	e := New(16, 0.3, 5)
	values := []string{"ann lee", "anne lee", "bob", "", "kilmarnock road 12"}
	want := make([][]float64, len(values))
	for i, v := range values {
		want[i] = e.PairFeatures(v, values[(i+1)%len(values)])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, v := range values {
					if !sameBits(e.PairFeatures(v, values[(i+1)%len(values)]), want[i]) {
						errs <- v
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for v := range errs {
		t.Errorf("concurrent PairFeatures of %q differs from the serial result", v)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
