//go:build !race

// The sweep below simulates every workload single-threaded, so the race
// detector finds nothing in it and would stretch it from seconds to
// minutes; CI runs it without -race in the timing-structure gate.

package pipeline

import (
	"testing"

	"chex86/internal/decode"
	"chex86/internal/workload"
)

// TestBandwidthNeverClamps runs every catalog workload under the insecure
// baseline, always-on and prediction variants until every core's issue
// window has slid at least once, and asserts that no bandwidth window
// (issue or functional unit) ever had to move a reservation up to its
// base: a clamp would silently grant a later cycle than the exact model.
// Commit has no window to clamp: its in-order counter is exact by
// construction (TestCommitCounterMatchesBandwidth).
func TestBandwidthNeverClamps(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload×variant sweep")
	}
	variants := []decode.Variant{decode.VariantInsecure, decode.VariantMicrocodeAlwaysOn, decode.VariantMicrocodePrediction}
	slid := func(s *Sim) bool {
		for _, c := range s.cores {
			if c.issueBW.base == 0 {
				return false
			}
		}
		return true
	}
	// run steps a fresh simulation until its windows have slid and then as
	// long again, so reservations keep coming after slides; it reports
	// false when the program ends first.
	run := func(p *workload.Profile, v decode.Variant, scale float64) (*Sim, bool) {
		prog, err := p.Build(scale)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		cfg := DefaultConfig()
		cfg.Variant = v
		sim, err := NewSim(prog, cfg, max(1, p.Threads))
		if err != nil {
			t.Fatalf("%s/%v: NewSim: %v", p.Name, v, err)
		}
		steps := 0
		for !slid(sim) {
			done, err := sim.Step(5_000)
			if err != nil {
				t.Fatalf("%s/%v: step: %v", p.Name, v, err)
			}
			if done {
				return sim, false
			}
			steps++
		}
		for ; steps > 0; steps-- {
			if done, err := sim.Step(5_000); err != nil {
				t.Fatalf("%s/%v: step: %v", p.Name, v, err)
			} else if done {
				break
			}
		}
		return sim, true
	}
	for _, p := range workload.Catalog() {
		for _, v := range variants {
			// Short programs are rebuilt at a larger scale until the run
			// lasts long enough to slide.
			var sim *Sim
			ok := false
			for scale := 1.0; !ok && scale <= 16; scale *= 2 {
				sim, ok = run(p, v, scale)
			}
			if !ok {
				t.Fatalf("%s/%v: the run ended before every core's issue window slid", p.Name, v)
			}
			for _, c := range sim.cores {
				windows := append([]*bandwidth{c.issueBW}, c.fuBW[:]...)
				for i, b := range windows {
					if b.clamps != 0 {
						t.Errorf("%s/%v core %d window %d: %d reserves clamped to the window base",
							p.Name, v, c.id, i, b.clamps)
					}
				}
			}
		}
	}
}
