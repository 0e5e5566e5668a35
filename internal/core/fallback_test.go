package core

import (
	"math"
	"math/rand"
	"testing"
)

// blob samples count rows of dim features around centre.
func blob(rng *rand.Rand, count, dim int, centre float64) [][]float64 {
	out := make([][]float64, count)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = clamp(centre + rng.NormFloat64()*0.04)
		}
		out[i] = row
	}
	return out
}

// TestSelectedFallbackOnSingleClassSelection drives the selector into a
// state where it keeps instances of only one class: a pure match
// cluster passes t_c while a mixed-label cluster fails it. Run must
// then fall back to the full source (a one-class training set is
// useless) and record the fallback in Stats.
func TestSelectedFallbackOnSingleClassSelection(t *testing.T) {
	xs, ys, xt, cfg := singleClassSelectionProblem()
	if sel := SelectInstances(xs, ys, xt, cfg); !singleClass(ys, sel) {
		t.Fatalf("setup broken: selection %v spans both classes", sel)
	}
	res, err := Run(xs, ys, xt, treeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.SelectedFallback {
		t.Errorf("expected SelectedFallback when selection is single-class")
	}
	if res.Stats.Selected != len(xs) {
		t.Errorf("fallback should train on the full source: Selected = %d, want %d",
			res.Stats.Selected, len(xs))
	}
	if len(res.Labels) != len(xt) {
		t.Errorf("fallback produced wrong output size")
	}
}

// singleClassSelectionProblem is a source whose default-K selection at
// t_c = 0.9 keeps one class only: a pure match cluster passes while a
// mixed-label cluster fails.
func singleClassSelectionProblem() (xs [][]float64, ys []int, xt [][]float64, cfg Config) {
	// Pure cluster: 12 copies of (0.8, 0.8) labelled match.
	for i := 0; i < 12; i++ {
		xs = append(xs, []float64{0.8, 0.8})
		ys = append(ys, 1)
	}
	// Conflicting cluster: 12 copies of (0.2, 0.2) with alternating
	// labels, so every neighbourhood is a coin flip (sim_c ~ 0.5).
	for i := 0; i < 12; i++ {
		xs = append(xs, []float64{0.2, 0.2})
		ys = append(ys, i%2)
	}
	xt = [][]float64{{0.8, 0.8}, {0.2, 0.2}, {0.8, 0.8}, {0.2, 0.2}}
	cfg = DefaultConfig()
	cfg.TC = 0.9 // pure cluster passes (sim_c = 1), mixed fails
	return xs, ys, xt, cfg
}

// TestRunWithSelectionLeavesSelectionIntact: a supplied selection is
// shared between runs, so RunWithSelection must never write to it, not
// even past its length on the degenerate-selection fallback, and each
// run must still reproduce Run bit for bit.
func TestRunWithSelectionLeavesSelectionIntact(t *testing.T) {
	xs, ys, xt, _ := transferProblem(120, 60, 0.05, 0.2, 41)
	fxs, fys, fxt, emptyCfg := singleClassSelectionProblem()
	oneClassCfg := emptyCfg
	oneClassCfg.TL = 0.1 // the pure match cluster now passes sim_l too
	for _, c := range []struct {
		name         string
		xs           [][]float64
		ys           []int
		xt           [][]float64
		cfg          Config
		wantFallback bool
	}{
		{"two-class", xs, ys, xt, DefaultConfig(), false},
		{"empty", fxs, fys, fxt, emptyCfg, true},
		{"single-class", fxs, fys, fxt, oneClassCfg, true},
	} {
		want, err := Run(c.xs, c.ys, c.xt, treeFactory(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.SelectedFallback != c.wantFallback {
			t.Fatalf("%s: setup broken: SelectedFallback = %v", c.name, want.Stats.SelectedFallback)
		}
		// The shared selection has spare capacity holding a sentinel,
		// so an append into its backing array would show.
		kept := SelectInstances(c.xs, c.ys, c.xt, c.cfg)
		if (len(kept) == 0) != (c.name == "empty") {
			t.Fatalf("%s: setup broken: selection %v", c.name, kept)
		}
		shared := make([]int, len(kept), len(kept)+len(c.xs))
		copy(shared, kept)
		backing := shared[:cap(shared)]
		for i := len(kept); i < len(backing); i++ {
			backing[i] = -7
		}
		pristine := append([]int(nil), backing...)
		for run := 0; run < 2; run++ {
			got, err := RunWithSelection(c.xs, c.ys, c.xt, treeFactory(), c.cfg,
				func(Config) ([]int, bool) { return shared, run > 0 })
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Proba {
				if got.Labels[i] != want.Labels[i] || math.Float64bits(got.Proba[i]) != math.Float64bits(want.Proba[i]) {
					t.Fatalf("%s run %d: row %d differs from Run", c.name, run, i)
				}
			}
			for i := range pristine {
				if backing[i] != pristine[i] {
					t.Fatalf("%s run %d: shared selection written at %d: %d, was %d",
						c.name, run, i, backing[i], pristine[i])
				}
			}
		}
	}
}

// TestTCLFallbackOnSingleClassPseudoLabels: when every target instance
// is confidently pseudo-labelled with the same class, the TCL training
// set is unusable and GEN's predictions must be returned as-is.
func TestTCLFallbackOnSingleClassPseudoLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs := append(blob(rng, 40, 3, 0.8), blob(rng, 40, 3, 0.2)...)
	ys := make([]int, 80)
	for i := 0; i < 40; i++ {
		ys[i] = 1
	}
	// Target contains only match-like rows: GEN labels all of them 1.
	xt := blob(rng, 40, 3, 0.8)

	res, err := Run(xs, ys, xt, treeFactory(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TCLFallback {
		t.Fatalf("expected TCLFallback on single-class pseudo labels (high confidence %d)",
			res.Stats.HighConfidence)
	}
	if res.Stats.HighConfidence < 20 {
		t.Errorf("setup broken: wanted a large single-class confident set, got %d",
			res.Stats.HighConfidence)
	}
	for i := range res.Labels {
		if res.Labels[i] != res.PseudoLabels[i] {
			t.Fatalf("fallback output differs from GEN at %d", i)
		}
	}
}

// TestTCLFallbackOnTinyTarget: a confident but tiny pseudo-labelled set
// (below the minimum TCL training size) must also fall back to GEN.
func TestTCLFallbackOnTinyTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs := append(blob(rng, 40, 3, 0.8), blob(rng, 40, 3, 0.2)...)
	ys := make([]int, 80)
	for i := 0; i < 40; i++ {
		ys[i] = 1
	}
	xt := append(blob(rng, 6, 3, 0.8), blob(rng, 5, 3, 0.2)...)

	// Loose SEL thresholds and a small K: with 11 target rows the
	// default 7-NN neighbourhood straddles both clusters and drags
	// sim_l down, which would trip the SEL fallback instead.
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.TC = 0.7
	cfg.TL = 0.5
	res, err := Run(xs, ys, xt, treeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TCLFallback {
		t.Fatalf("expected TCLFallback with only %d target rows (high confidence %d)",
			len(xt), res.Stats.HighConfidence)
	}
	if res.Stats.HighConfidence == 0 {
		t.Errorf("setup broken: expected some confident pseudo labels on separable target")
	}
	if res.Stats.SelectedFallback {
		t.Errorf("unexpected SEL fallback; this test targets the TCL branch")
	}
}
