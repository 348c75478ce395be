package pipeline

import (
	"math/rand"
	"testing"
)

// TestBandwidthMatchesExactReference drives bandwidth with randomized
// reserves across many window slides and compares every granted cycle
// with an exact reference that keeps each cycle's count in a map and
// grants the first cycle at or after want with spare width. Requests
// trail a moving frontier by up to 2048 cycles, as the scheduler's do,
// and the frontier sometimes jumps ahead by up to three windows, so the
// window grows, slides by small and large shifts, and wraps.
func TestBandwidthMatchesExactReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		bw := newBandwidth(width)
		ref := map[uint64]int{}
		var frontier uint64
		slides := 0
		for i := 0; i < 100_000; i++ {
			frontier += uint64(rng.Intn(4))
			if rng.Intn(2000) == 0 {
				frontier += uint64(rng.Intn(3 * bwWindow))
			}
			want := frontier - min(frontier, uint64(rng.Intn(2048)))
			exp := want
			for ref[exp] >= width {
				exp++
			}
			ref[exp]++
			base := bw.base
			if got := bw.reserve(want); got != exp {
				t.Fatalf("width %d, reserve %d: reserve(%d) = %d, reference %d (window base %d)",
					width, i, want, got, exp, bw.base)
			}
			if bw.base != base {
				slides++
			}
		}
		if slides < 20 {
			t.Fatalf("width %d: only %d slides, want the sequence to cross many", width, slides)
		}
	}
}
