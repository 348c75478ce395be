package elide

import (
	"testing"

	"chex86/internal/asm"
	"chex86/internal/lockstep/progen"
	"chex86/internal/ptrflow"
)

// TestColdAnalysisFootprint bounds the allocations one fuzz genome's
// elision analysis makes: ptrflow.Analyze plus elide.FromAnalysis over 16
// fixed seeds, averaged per genome. The fixpoint transfers blocks in one
// reused scratch state, frames are sorted slices, disassembly is
// rendered only with a report and the rule export is marshalled once per
// process, so what remains is the retained analysis itself (entry
// states, sites, the proof bundle and the report): about 640 per genome,
// and about 720 under the race detector, whose sync.Pool drops make fmt
// and encoding/json allocate afresh. The analysis before these changes
// made about 1,500.
func TestColdAnalysisFootprint(t *testing.T) {
	const limit = 760
	var progs []*asm.Program
	for seed := uint64(1); seed <= 16; seed++ {
		p, err := progen.Generate(seed, progen.Options{}).Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, p := range progs {
			an, err := ptrflow.Analyze(p, ptrflow.Options{Harts: 1})
			if err != nil {
				t.Fatal(err)
			}
			FromAnalysis(p, an, Options{Harts: 1})
		}
	}) / float64(len(progs))
	t.Logf("Analyze + FromAnalysis: %.0f allocations per genome", allocs)
	if allocs > limit {
		t.Fatalf("Analyze + FromAnalysis made %.0f allocations per genome, want <= %d", allocs, limit)
	}
}
