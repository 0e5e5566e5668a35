package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"transer/internal/pipeline"
)

// renderDigests are the SHA-256 digests of the normalized renders of
// the TransER experiments at scale 0.05 (seed 1, SkipSlow, the four
// standard classifiers), recorded before SEL ran through one engine
// and a per-task memo. table2 is digested with its runtime column
// masked.
var renderDigests = map[string]string{
	"table2":  "50d1d27237dd29cfa5cdf9de597946825ad6d7dbaac2256800e4cefb0d2a9628",
	"figure6": "5f61e1d49412087a6b6aa23cde477a2aa0a65645f0acd3489d45b71a1c820004",
	"figure7": "5aca2a3c63da6ea70316cd91eab17887ccab310de087b817a081a62b3a920ae8",
	"table4":  "f234f21e6347208cf39ba8a34c3f3768f3e73caa6c67a4318d722bb89008bf33",
}

// TestRenderDigests is the fast golden gate for everything that runs
// TransER: each experiment must render its recorded digest, on a cold
// store and again on a second render that shares the store.
func TestRenderDigests(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 1, SkipSlow: true}
	st := pipeline.NewStore()
	for _, pass := range []string{"cold", "warm"} {
		for _, name := range []string{"table2", "figure6", "figure7", "table4"} {
			out := normalizeGolden(renderWith(t, name, opts, st))
			if name == "table2" {
				out = maskRuntimes(out)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != renderDigests[name] {
				t.Errorf("%s (%s): render digest %s, recorded %s", name, pass, got, renderDigests[name])
			}
		}
	}
}
