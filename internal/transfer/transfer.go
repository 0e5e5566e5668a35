// Package transfer implements the six baselines the paper compares
// TransER against (Section 5.1.3): Naive, DTAL*, DR, LocIT*, TCA, and
// CORAL — plus the shared Task abstraction they all consume and a
// TransER adapter so the experiment harness can treat every method
// uniformly.
package transfer

import (
	"errors"
	"fmt"

	"transer/internal/dataset"
	"transer/internal/ml"
)

// Task bundles everything a transfer method may need for one
// source→target run: the feature matrices (all methods), and the
// underlying databases and candidate pairs (the DR baseline re-embeds
// raw attribute values).
//
// A Task carries a memo of the transform baselines' adapt steps,
// keyed by method configuration and input content (DESIGN.md §1.3).
// Methods may run on one Task concurrently; its inputs must stay
// read-only meanwhile, and it must not be copied while a method runs
// on it.
type Task struct {
	// XS, YS are the labelled source feature matrix.
	XS [][]float64
	YS []int
	// XT is the unlabelled target feature matrix.
	XT [][]float64

	// SourceA/SourceB with SourcePairs and TargetA/TargetB with
	// TargetPairs identify the raw record pairs behind the rows of XS
	// and XT. They may be nil for methods that work purely in feature
	// space.
	SourceA, SourceB *dataset.Database
	TargetA, TargetB *dataset.Database
	SourcePairs      []dataset.Pair
	TargetPairs      []dataset.Pair

	// memo holds the adapt steps computed on this Task (see
	// runAdapted); it is created on first use, under memoMu.
	memo map[memoKey]*memoEntry
}

// Validate checks the feature-space invariants shared by all methods.
func (t *Task) Validate() error {
	if len(t.XS) == 0 {
		return errors.New("transfer: empty source feature matrix")
	}
	if len(t.XS) != len(t.YS) {
		return fmt.Errorf("transfer: %d source rows but %d labels", len(t.XS), len(t.YS))
	}
	if len(t.XT) == 0 {
		return errors.New("transfer: empty target feature matrix")
	}
	m := len(t.XS[0])
	for i, r := range t.XS {
		if len(r) != m {
			return fmt.Errorf("transfer: ragged source row %d", i)
		}
	}
	for i, r := range t.XT {
		if len(r) != m {
			return fmt.Errorf("transfer: target row %d has %d features, want %d", i, len(r), m)
		}
	}
	return nil
}

// Dim returns the feature dimensionality m.
func (t *Task) Dim() int {
	if len(t.XS) == 0 {
		return 0
	}
	return len(t.XS[0])
}

// Result is a transfer method's output on the target pairs.
type Result struct {
	// Labels are the predicted target labels (1 = match).
	Labels []int
	// Proba are match probabilities aligned with Labels.
	Proba []float64
	// Classifier is the trained classifier behind Proba, when the
	// method exposes one (TransER does; baselines with built-in or
	// transformed-feature-space models leave it nil). It enables model
	// export via internal/model.
	Classifier ml.Classifier
}

// Method is one transfer approach usable by the experiment harness.
type Method interface {
	// Name is the display name used in result tables.
	Name() string
	// Run labels the target instances of the task. The factory
	// supplies the downstream ER classifier for methods that train
	// one; methods with built-in models (DTAL*) ignore it.
	Run(t *Task, factory ml.Factory) (*Result, error)
}

// resultFromProba converts probabilities to a Result with 0.5
// thresholding.
func resultFromProba(proba []float64) *Result {
	return &Result{Labels: ml.Labels(proba, 0.5), Proba: proba}
}
