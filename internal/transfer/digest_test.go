package transfer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"transer/internal/datagen"
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

// TestBaselineOutputDigests: TCA, DR, CORAL and LocIT* reproduce their
// recorded outputs on MB → MSD at scale 0.05 with the tree classifier
// bit for bit. Their kernels (the Jacobi eigensolver behind TCA and
// CORAL, DR's embedding memo) are tuned for speed, and tuning must not
// move a bit. The task is large enough for a full 256-landmark TCA
// system.
func TestBaselineOutputDigests(t *testing.T) {
	task, _ := domainTask(datagen.MB(0.05), datagen.MSD(0.05))
	for _, c := range []struct {
		name   string
		m      Method
		digest string
	}{
		{"TCA", TCA{Seed: 1}, "295191eb5a4fc878"},
		{"DR", DR{Seed: 1}, "defc8f681fd00c34"},
		{"DR subword", DR{Seed: 1, SubwordWeight: 0.5}, "e993faa79bb02935"},
		{"Coral", Coral{}, "defa88f9ad0a8bcb"},
		{"LocIT*", LocIT{Seed: 1}, "0d13b8343aaa1887"},
	} {
		res, err := c.m.Run(task, factory())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := resultDigest(res); got != c.digest {
			t.Errorf("%s output digest %s, want %s", c.name, got, c.digest)
		}
	}
}
