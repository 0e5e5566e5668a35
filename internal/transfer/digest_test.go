package transfer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"transer/internal/datagen"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/ml/logreg"
	"transer/internal/ml/svm"
	"transer/internal/ml/tree"
)

// resultDigest hashes a result's labels and the bit patterns of its
// probabilities.
func resultDigest(r *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, y := range r.Labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(y))
		h.Write(buf[:])
	}
	for _, p := range r.Proba {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// standardClassifiers mirrors the experiments layer's four standard
// classifiers (which this package cannot import) with a fixed seed.
func standardClassifiers() []ml.Named {
	return []ml.Named{
		{Name: "svm", New: svm.Factory(svm.Config{Seed: 2})},
		{Name: "rf", New: forest.Factory(forest.Config{Seed: 2})},
		{Name: "logreg", New: logreg.Factory(logreg.Config{})},
		{Name: "dtree", New: tree.Factory(tree.Config{Seed: 2})},
	}
}

// TestBaselineOutputDigests: TCA, DR, CORAL and LocIT* reproduce their
// recorded outputs on MB → MSD at scale 0.05 with each standard
// classifier bit for bit. Their kernels (the Jacobi eigensolver behind
// TCA and CORAL, DR's embedding memo) are tuned for speed, and tuning
// must not move a bit. Each classifier runs twice on its own copy of
// the task, first adapting and then reusing the memoised adapt step;
// both runs must match the digest recorded before adapt was split from
// fit/predict.
// The task is large enough for a full 256-landmark TCA system.
func TestBaselineOutputDigests(t *testing.T) {
	task, _ := domainTask(datagen.MB(0.05), datagen.MSD(0.05))
	for _, c := range []struct {
		name    string
		m       Method
		digests map[string]string
	}{
		{"TCA", TCA{Seed: 1}, map[string]string{
			"svm": "a9b0044a31e41142", "rf": "98cb50f31f57f037",
			"logreg": "f1c5668a957bf4d7", "dtree": "295191eb5a4fc878"}},
		{"DR", DR{Seed: 1}, map[string]string{
			"svm": "f99bdacbfaf0de9a", "rf": "19534a4aab8f1220",
			"logreg": "08b9f038d502fda6", "dtree": "defc8f681fd00c34"}},
		{"DR subword", DR{Seed: 1, SubwordWeight: 0.5}, map[string]string{
			"svm": "a13dcf42f9b46068", "rf": "a3ba17f8e4bb6985",
			"logreg": "6a26e151a0a01c51", "dtree": "e993faa79bb02935"}},
		{"Coral", Coral{}, map[string]string{
			"svm": "3697ae165d8c9185", "rf": "0786c87ea88c5d05",
			"logreg": "a6728a8759bce4eb", "dtree": "defa88f9ad0a8bcb"}},
		{"LocIT*", LocIT{Seed: 1}, map[string]string{
			"svm": "426389862ebe602c", "rf": "6db8cfde8e9a8269",
			"logreg": "0615f17888afbe30", "dtree": "0d13b8343aaa1887"}},
	} {
		for _, cl := range standardClassifiers() {
			cold := freshTask(task)
			for _, run := range []string{"cold", "memo hit"} {
				res, err := c.m.Run(cold, cl.New)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, cl.Name, err)
				}
				if got, want := resultDigest(res), c.digests[cl.Name]; got != want {
					t.Errorf("%s/%s (%s) output digest %s, want %s", c.name, cl.Name, run, got, want)
				}
			}
		}
	}
}
