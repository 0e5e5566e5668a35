package transfer

import (
	"strings"
	"testing"

	"transer/internal/blocking"
	"transer/internal/datagen"
	"transer/internal/embed"
)

// TestDRMisalignedPairsError: DR re-embeds raw record pairs, so pair
// lists that do not line up with the feature matrices must be rejected
// before any embedding work happens.
func TestDRMisalignedPairsError(t *testing.T) {
	src := datagen.DBLPACM(0.05)
	tgt := datagen.DBLPScholar(0.05)
	task, _ := domainTask(src, tgt)
	task.SourcePairs = task.SourcePairs[:len(task.SourcePairs)-1]
	_, err := DR{}.Run(task, factory())
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned pairs returned %v, want a misalignment error", err)
	}
}

// TestDRSeedDeterminism: hashing embeddings and density-ratio
// resampling are both seeded; two runs with the same seed must agree
// bitwise.
func TestDRSeedDeterminism(t *testing.T) {
	src := datagen.DBLPACM(0.05)
	tgt := datagen.DBLPScholar(0.05)
	task, _ := domainTask(src, tgt)
	m := DR{Seed: 5}
	a, err := m.Run(task, factory())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := m.Run(task, factory())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for i := range a.Proba {
		if a.Proba[i] != b.Proba[i] {
			t.Fatalf("row %d: %v vs %v across identically seeded runs", i, a.Proba[i], b.Proba[i])
		}
	}
}

// BenchmarkDRRepresent measures DR's pair representation of one
// demographic domain (KIL-Bp-Dp at scale 0.05, 2,877 candidate pairs),
// a fresh memo per call as in DR.Run.
func BenchmarkDRRepresent(b *testing.B) {
	d := datagen.KILBpDp(0.05)
	pairs := blocking.CandidatePairs(d.A, d.B, blocking.MinHashConfig{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		representSink = represent(embed.New(8, 0, 1).Memo(), 8, d.A, d.B, pairs)
	}
}

// representSink keeps benchmarked results alive.
var representSink [][]float64
