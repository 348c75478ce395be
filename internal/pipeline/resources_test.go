package pipeline

import (
	"math/rand"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/workload"
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

// TestCommitCounterMatchesBandwidth drives the in-order commit counter
// and the bandwidth window it replaced with identical commit-shaped
// request streams — want = max(done+1, last grant), with done jittering
// behind and jumping ahead of the frontier, runs of same-cycle requests
// past the width, and AdvanceTo-style jumps of last grant — and requires
// every grant to agree.
func TestCommitCounterMatchesBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		cc := newCommitCounter(width)
		bw := newBandwidth(width)
		var last, frontier uint64
		for i := 0; i < 200_000; i++ {
			frontier += uint64(rng.Intn(3))
			if rng.Intn(5000) == 0 {
				frontier += uint64(rng.Intn(3 * bwWindow))
			}
			done := frontier - min(frontier, uint64(rng.Intn(64)))
			if rng.Intn(3) == 0 {
				done = last // a burst into the newest granted cycle
			}
			if rng.Intn(10_000) == 0 {
				last += uint64(rng.Intn(1000)) // Sim.AdvanceTo raises lastCommit
			}
			want := max(done+1, last)
			got, exp := cc.reserve(want), bw.reserve(want)
			if got != exp {
				t.Fatalf("width %d, request %d: reserve(%d) = %d, bandwidth window %d", width, i, want, got, exp)
			}
			last = got
		}
		if bw.clamps != 0 {
			t.Fatalf("width %d: the reference window clamped %d requests", width, bw.clamps)
		}
	}
}

// heapWindow is the instruction-queue model issueWindow replaced, kept as
// its reference: a 4-ary min-heap of the capacity largest issue times
// with a hole-based sift, whose root is the dispatch bound once full.
type heapWindow struct {
	capacity int
	heap     []uint64
}

func (w *heapWindow) bound() uint64 {
	if len(w.heap) < w.capacity {
		return 0
	}
	return w.heap[0]
}

func (w *heapWindow) occupied(now uint64) int {
	held := 0
	for _, t := range w.heap {
		if t > now {
			held++
		}
	}
	return held
}

func (w *heapWindow) add(issue uint64) {
	h := w.heap
	if len(h) < w.capacity {
		h = append(h, issue)
		w.heap = h
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 4
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return
	}
	if issue <= h[0] {
		return
	}
	n := len(h)
	i := 0
	for {
		small, least := i, issue
		c := 4*i + 1
		last := min(c+4, n)
		for ; c < last; c++ {
			if h[c] < least {
				small, least = c, h[c]
			}
		}
		if small == i {
			break
		}
		h[i] = least
		i = small
	}
	h[i] = issue
}

// TestIssueWindowMatchesReference drives issueWindow and the heap
// reference with random streams shaped like the scheduler's: admit floors
// that never decrease (with occasional jumps past the ring), issue times
// at or above the latest floor (mostly close to it, sometimes spiking far
// past the ring end), a not-yet-full phase at the start of every stream,
// and capacities from 1 to 255. Every admit must return the larger of the
// reference bound and the floor, and occupied(now) must match the
// reference for any now at or after the latest floor. Occasional bursts of
// spiky adds between admits empty the ring and leave the bound in the
// overflow list.
func TestIssueWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	capacities := []int{1, 2, 3, 7, 64, 100, 254, 255}
	for i := 0; i < 24; i++ {
		capacities = append(capacities, 1+rng.Intn(255))
	}
	var overflowed, pulled, folded int
	for _, capacity := range capacities {
		w := newIssueWindow(capacity)
		ref := &heapWindow{capacity: capacity}
		var floor uint64
		steps := 4000 + 40*capacity
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(1000); {
			case r < 3:
				floor += uint64(rng.Intn(4 * iqRing))
			case r < 400:
				floor += uint64(rng.Intn(4))
			}
			if w.held > 0 && w.low < floor {
				folded++
			}
			spilled := len(w.over)
			exp := max(ref.bound(), floor)
			if got := w.admit(floor); got != exp {
				t.Fatalf("capacity %d, step %d: admit(%d) = %d, reference %d",
					capacity, step, floor, got, exp)
			}
			if len(w.over) < spilled {
				pulled++
			}
			// Mostly one add per admit, as in the scheduler; now and then
			// a long burst of adds with many spikes, which empties the
			// ring between admits.
			adds, burst := rng.Intn(3), rng.Intn(200) == 0
			if burst {
				adds = 1 + rng.Intn(2*capacity)
			}
			for ; adds > 0; adds-- {
				issue := floor + uint64(rng.Intn(1+rng.Intn(64)))
				switch r := rng.Intn(1000); {
				case burst && r < 500:
					issue += uint64(iqRing + rng.Intn(iqRing))
				case r < 5:
					issue += uint64(iqRing + rng.Intn(60_000))
				case r < 15:
					issue += uint64(rng.Intn(2 * iqRing))
				}
				spilled := len(w.over)
				w.add(issue)
				ref.add(issue)
				if len(w.over) > spilled {
					overflowed++
				}
			}
			if rng.Intn(8) == 0 {
				now := floor + uint64(rng.Intn(3*iqRing))
				if rng.Intn(4) == 0 {
					now = floor
				}
				if got, want := w.occupied(now), ref.occupied(now); got != want {
					t.Fatalf("capacity %d, step %d: occupied(%d) = %d, reference %d (floor %d)",
						capacity, step, now, got, want, floor)
				}
			}
			if w.held != len(ref.heap) {
				t.Fatalf("capacity %d, step %d: holds %d entries, reference %d",
					capacity, step, w.held, len(ref.heap))
			}
		}
	}
	t.Logf("%d adds overflowed the ring, %d admits pulled overflow entries back, %d admits folded",
		overflowed, pulled, folded)
	if overflowed == 0 || pulled == 0 || folded == 0 {
		t.Fatal("the streams must overflow the ring, pull entries back and fold")
	}
}

// iqEvent is one step of a recorded instruction-queue stream: the admit
// floor and the issue time that follows it.
type iqEvent struct{ floor, issue uint64 }

// recordIQStream runs a catalog workload and records core 0's IQ stream
// through Sim.TraceUop. The trace carries each μop's final dispatch cycle,
// so the floor is its running maximum (floors never decrease), and an
// issue below that floor is raised to it.
func recordIQStream(b *testing.B, name string, v decode.Variant, insts uint64) []iqEvent {
	p := workload.ByName(name)
	prog, err := p.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Variant = v
	cfg.MaxInsts = p.SetupInsts() + insts
	sim, err := NewSim(prog, cfg, max(1, p.Threads))
	if err != nil {
		b.Fatal(err)
	}
	var events []iqEvent
	var floor uint64
	sim.TraceUop = func(tr UopTrace) {
		if tr.Core != 0 || tr.Issue == 0 { // zero idioms never enter the IQ
			return
		}
		floor = max(floor, tr.Dispatch)
		events = append(events, iqEvent{floor, max(tr.Issue, floor)})
	}
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	return events
}

// BenchmarkIssueWindow replays recorded IQ streams (canneal, whose rare
// μops become ready far past dispatch, and xalancbmk) through the
// counting window and the heap it replaced, one admit and one add per
// event, and reports ns/add.
func BenchmarkIssueWindow(b *testing.B) {
	const capacity = 64
	streams := []struct {
		name    string
		variant decode.Variant
	}{
		{"canneal", decode.VariantInsecure},
		{"xalancbmk", decode.VariantMicrocodePrediction},
	}
	for _, s := range streams {
		events := recordIQStream(b, s.name, s.variant, 200_000)
		w, ref := newIssueWindow(capacity), &heapWindow{capacity: capacity}
		for i, e := range events {
			if got, want := w.admit(e.floor), max(ref.bound(), e.floor); got != want {
				b.Fatalf("%s event %d: admit(%d) = %d, heap %d", s.name, i, e.floor, got, want)
			}
			w.add(e.issue)
			ref.add(e.issue)
		}
		perAdd := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/add")
		}
		var sink uint64
		b.Run(s.name+"/window", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := newIssueWindow(capacity)
				for _, e := range events {
					sink += w.admit(e.floor)
					w.add(e.issue)
				}
			}
			perAdd(b)
		})
		b.Run(s.name+"/heap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := &heapWindow{capacity: capacity}
				for _, e := range events {
					sink += max(h.bound(), e.floor)
					h.add(e.issue)
				}
			}
			perAdd(b)
		})
		b.Logf("%s: %d events, sink %d", s.name, len(events), sink)
	}
}
