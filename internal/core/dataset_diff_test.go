package core_test

import (
	"testing"

	"transer/internal/core"
	"transer/internal/pipeline"
	"transer/internal/testkit"
)

// TestSelectorMatchesReferenceOnDatasets: on every paper task the
// selector picks exactly the per-instance oracle's training instances.
// Scale 0.25 exercises the real duplicate distributions; -short drops
// to 0.05 to keep the unit suite quick.
func TestSelectorMatchesReferenceOnDatasets(t *testing.T) {
	scale := 0.25
	if testing.Short() {
		scale = 0.05
	}
	st := pipeline.NewStore()
	cfg := core.DefaultConfig()
	for _, ref := range pipeline.PaperTaskRefs() {
		src := st.Domain(pipeline.Request{Dataset: pipeline.MustDataset(ref.Source), Scale: scale})
		tgt := st.Domain(pipeline.Request{Dataset: pipeline.MustDataset(ref.Target), Scale: scale})
		got := core.SelectInstances(src.X, src.Y, tgt.X, cfg)
		want := core.ReferenceSelect(src.X, src.Y, tgt.X, cfg)
		if !testkit.EqualInts(got, want) {
			t.Errorf("%s: selector kept %d instances, reference kept %d (selections differ)",
				ref.Name(), len(got), len(want))
		}
	}
}
