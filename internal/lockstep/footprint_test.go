package lockstep

import (
	"runtime"
	"testing"

	"chex86/internal/lockstep/progen"
)

// TestRunGenomeFootprint bounds the bytes one genome allocates through
// the default twelve-cell matrix, averaged over 8 fixed seeds: one
// elision analysis shared by every eliding cell, a commit differ that
// allocates nothing per commit, and Sims whose predictor tables are
// built on first write. That is about 2.4 MiB per genome (2.5 MiB under
// the race detector); before these changes it was about 5.6 MiB.
func TestRunGenomeFootprint(t *testing.T) {
	const limit = 2700 << 10
	var gs []*progen.Genome
	for seed := uint64(1); seed <= 8; seed++ {
		gs = append(gs, progen.Generate(seed, progen.Options{}))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, g := range gs {
		if pr := RunGenome(g, DefaultConditions(), RunOptions{}); pr.Failure != nil {
			t.Fatalf("seed %d: %v", g.Seed, pr.Failure)
		}
	}
	runtime.ReadMemStats(&after)
	n := (after.TotalAlloc - before.TotalAlloc) / uint64(len(gs))
	t.Logf("RunGenome allocated %d bytes per genome", n)
	if n > limit {
		t.Fatalf("RunGenome allocated %d bytes per genome, want <= %d", n, limit)
	}
}
