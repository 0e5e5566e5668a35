package core

import (
	"errors"
	"fmt"
	"time"

	"transer/internal/ml"
	"transer/internal/sampling"
)

// Run executes TransER on one source→target task.
//
// Inputs are the source feature matrix xs with labels ys, the target
// feature matrix xt, a classifier factory (fresh instances are trained
// in the GEN and TCL phases), and the configuration. It returns the
// final target labels with probabilities and per-phase statistics.
func Run(xs [][]float64, ys []int, xt [][]float64, factory ml.Factory, cfg Config) (*Result, error) {
	return RunWithSelection(xs, ys, xt, factory, cfg, func(c Config) ([]int, bool) {
		return SelectInstances(xs, ys, xt, c), false
	})
}

// RunWithSelection is Run with the SEL phase supplied by sel, so a
// caller that runs one task under several configurations can reuse
// one selection (transfer.TransER memoises it per task). sel must
// return what SelectInstances(xs, ys, xt, cfg) returns, and whether it
// was reused from an earlier run rather than computed now; cfg.Obs is
// the run's sel span, and the returned slice is only read. Output is
// then bitwise Run's. A reused selection still records the sel span,
// with a sel_cache child in place of the selector's sub-spans.
func RunWithSelection(xs [][]float64, ys []int, xt [][]float64, factory ml.Factory, cfg Config, sel func(cfg Config) (selected []int, reused bool)) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, errors.New("core: empty source feature matrix")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("core: %d source rows but %d labels", len(xs), len(ys))
	}
	if len(xt) == 0 {
		return nil, errors.New("core: empty target feature matrix")
	}
	m := len(xs[0])
	for i, row := range xt {
		if len(row) != m {
			return nil, fmt.Errorf("core: target row %d has %d features, source has %d (feature spaces must be homogeneous)", i, len(row), m)
		}
	}
	if factory == nil {
		return nil, errors.New("core: nil classifier factory")
	}

	res := &Result{Stats: Stats{
		SourceInstances: len(xs),
		TargetInstances: len(xt),
	}}
	cfg.Obs.SetInt("source_instances", int64(len(xs)))
	cfg.Obs.SetInt("target_instances", int64(len(xt)))

	// Phase (i): instance selector — lines 1-9 of Algorithm 1. The
	// selector records its sel_dedup/sel_build/sel_query sub-phases,
	// which must nest under the sel span, so it runs with a config
	// whose Obs handle is the sel span itself.
	selSpan := cfg.Obs.Child("sel")
	selStart := time.Now()
	selCfg := cfg
	selCfg.Obs = selSpan
	selected, reused := sel(selCfg)
	if reused {
		hit := selSpan.Child("sel_cache")
		hit.SetInt("kept", int64(len(selected)))
		hit.End()
	}
	if len(selected) == 0 || singleClass(ys, selected) {
		// Degenerate selection: fall back to the full source so a
		// classifier can still be trained. The paper's data never
		// triggers this; extreme thresholds (t_c = t_l = 1.0) can.
		// A fresh slice: a reused selection is shared.
		selected = make([]int, len(xs))
		for i := range selected {
			selected[i] = i
		}
		res.Stats.SelectedFallback = true
	}
	xu := make([][]float64, len(selected))
	yu := make([]int, len(selected))
	for i, idx := range selected {
		xu[i] = xs[idx]
		yu[i] = ys[idx]
	}
	res.Stats.Selected = len(xu)
	res.Stats.SelTime = time.Since(selStart)
	selSpan.SetInt("selected", int64(res.Stats.Selected))
	selSpan.SetBool("fallback", res.Stats.SelectedFallback)
	selSpan.End()

	// Phase (ii): pseudo label generator — lines 10-11.
	genSpan := cfg.Obs.Child("gen")
	genStart := time.Now()
	fitSpan := genSpan.Child("fit")
	cu, err := ml.FitWithFallback(factory, xu, yu)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: GEN training failed: %w", err)
	}
	predictSpan := genSpan.Child("predict")
	proba := ml.ParallelProba(cu, xt, cfg.Workers)
	predictSpan.End()
	res.PseudoLabels = ml.Labels(proba, 0.5)
	res.PseudoConfidence = make([]float64, len(proba))
	for i, p := range proba {
		res.PseudoConfidence[i] = ml.Confidence(p)
	}
	res.Stats.GenTime = time.Since(genStart)
	genSpan.SetInt("pseudo_labels", int64(len(res.PseudoLabels)))
	genSpan.End()

	if cfg.DisableGENTCL {
		// Ablation "without GEN & TCL": classify the target directly
		// with the classifier trained on the transferred instances.
		res.Labels = ml.Labels(proba, 0.5)
		res.Proba = proba
		res.Classifier = cu
		return res, nil
	}

	// Phase (iii): target domain classifier — lines 12-20.
	tclSpan := cfg.Obs.Child("tcl")
	tclStart := time.Now()
	var xv [][]float64
	var yv []int
	for i, z := range res.PseudoConfidence {
		if z >= cfg.TP {
			xv = append(xv, xt[i])
			yv = append(yv, res.PseudoLabels[i])
		}
	}
	res.Stats.HighConfidence = len(xv)
	tclSpan.SetInt("pseudo_kept", int64(len(xv)))

	// A usable TCL training set needs both classes and enough rows for
	// the classifier to generalise; otherwise GEN's predictions are the
	// better answer.
	const minTCLTrain = 20
	xvb, yvb := sampling.UnderSample(xv, yv, cfg.B, cfg.Seed)
	if len(xvb) < minTCLTrain || allSame(yvb) {
		// No usable pseudo-labelled training set: return GEN's
		// predictions directly rather than failing the task.
		res.Labels = ml.Labels(proba, 0.5)
		res.Proba = proba
		res.Classifier = cu
		res.Stats.TCLFallback = true
		res.Stats.TclTime = time.Since(tclStart)
		tclSpan.SetBool("fallback", true)
		tclSpan.End()
		return res, nil
	}

	res.Stats.BalancedTrain = len(xvb)
	tclSpan.SetInt("balanced_train", int64(len(xvb)))
	fitSpan = tclSpan.Child("fit")
	cv, err := ml.FitWithFallback(factory, xvb, yvb)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: TCL training failed: %w", err)
	}
	predictSpan = tclSpan.Child("predict")
	finalProba := ml.ParallelProba(cv, xt, cfg.Workers)
	predictSpan.End()
	res.Labels = ml.Labels(finalProba, 0.5)
	res.Proba = finalProba
	res.Classifier = cv
	res.Stats.TclTime = time.Since(tclStart)
	tclSpan.End()
	return res, nil
}

func singleClass(ys []int, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := ys[idx[0]]
	for _, i := range idx[1:] {
		if ys[i] != first {
			return false
		}
	}
	return true
}

func allSame(y []int) bool {
	if len(y) == 0 {
		return true
	}
	for _, v := range y[1:] {
		if v != y[0] {
			return false
		}
	}
	return true
}
