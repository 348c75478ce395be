package pipeline

import "math"

// This file implements the scheduling resources of the one-pass
// out-of-order timing model: per-cycle bandwidth counters (issue width,
// functional-unit pools), the in-order commit counter, and in-order
// occupancy rings (ROB, IQ, LQ, SQ). The model processes the committed
// micro-op trace in a single pass, computing for every micro-op its fetch,
// dispatch, issue, completion, and commit cycles subject to these
// resource constraints — the standard trace-driven instruction-window
// timing approach.

// bwWindow is the sliding-window size for bandwidth counters. It must
// exceed the maximum spread between the oldest and newest in-flight cycle,
// which is bounded by ROB occupancy times worst-case memory latency.
const bwWindow = 1 << 16

// bandwidth models a per-cycle issue/commit/FU bandwidth limit using a
// sliding window of per-cycle counters. Counters are a single byte each:
// the schedule loop reserves from several bandwidth instances per μop, so
// the combined window footprint must stay cache-resident (widths are
// pipeline widths and FU pool sizes, single digits in practice).
//
// Cycle c's counter lives at index c % bwWindow, by absolute cycle, so a
// slide clears exactly the positions of the cycles it discards and every
// kept count stays put. The window starts at bwInitial counters and
// doubles on demand up to bwWindow; it only slides once it has reached
// bwWindow, so base is 0 while it grows and no counter moves. A short
// simulation therefore pays for the cycles it reaches, not for a full
// window per resource.
type bandwidth struct {
	width  uint8
	base   uint64  // first cycle represented by the window
	end    uint64  // first cycle past the window: base + len(counts)
	counts []uint8 // per-cycle reservations, bwInitial..bwWindow long
	clamps uint64  // reserves whose want lay below base and was moved up to it
}

// bwInitial is the starting window length.
const bwInitial = 1 << 10

func newBandwidth(width int) *bandwidth {
	if width < 1 || width > 255 {
		panic("bandwidth width out of range")
	}
	return &bandwidth{width: uint8(width), end: bwInitial, counts: make([]uint8, bwInitial)}
}

// reserve finds the first cycle at or after want with spare bandwidth,
// consumes one slot, and returns that cycle.
func (b *bandwidth) reserve(want uint64) uint64 {
	if want < b.base {
		// The window slid past want, so the cycle granted is not the one a
		// full history would give. Counted so tests can prove it never
		// happens on real workloads.
		b.clamps++
		want = b.base
	}
	for {
		if want >= b.end {
			b.advance(want)
		}
		idx := want % bwWindow
		if b.counts[idx] < b.width {
			b.counts[idx]++
			return want
		}
		want++
	}
}

// advance makes the window cover want: it doubles a window shorter than
// bwWindow (base is still 0, so indices are unchanged) and slides a full
// one so that want lands in its middle.
func (b *bandwidth) advance(want uint64) {
	if n := uint64(len(b.counts)); n < bwWindow {
		for n <= want && n < bwWindow {
			n *= 2
		}
		grown := make([]uint8, n)
		copy(grown, b.counts)
		b.counts = grown
		b.end = n
		if want < b.end {
			return
		}
	}
	b.slide(want - b.base - bwWindow/2)
}

// slide advances the window base by shift cycles, discarding old counters.
// The discarded index range [base%W, (base+shift)%W) is cleared as one or
// two contiguous spans so the runtime can use vectorized memclr.
func (b *bandwidth) slide(shift uint64) {
	start := b.base % bwWindow
	switch end := start + shift; {
	case shift >= bwWindow:
		clear(b.counts)
	case end <= bwWindow:
		clear(b.counts[start:end])
	default:
		clear(b.counts[start:])
		clear(b.counts[:end-bwWindow])
	}
	b.base += shift
	b.end = b.base + bwWindow
}

// commitCounter is the commit-width limit. Commit is in order: every
// request is max(done+1, lastCommit), and lastCommit is the newest
// granted cycle (AdvanceTo only ever raises it), so requests never
// decrease and only the newest granted cycle can still have a free slot.
// A counter of that cycle's grants is therefore the exact bandwidth
// window, without one.
type commitCounter struct {
	width int
	cycle uint64 // newest granted cycle
	used  int    // grants at cycle
}

func newCommitCounter(width int) commitCounter { return commitCounter{width: width} }

// reserve grants the first cycle at or after want with a free commit
// slot; want must not precede the previous grant.
func (c *commitCounter) reserve(want uint64) uint64 {
	if want > c.cycle {
		c.cycle, c.used = want, 0
	} else if c.used == c.width {
		c.cycle, c.used = c.cycle+1, 0
	}
	c.used++
	return c.cycle
}

// occupancyRing models an in-order-allocated, capacity-limited structure
// (ROB, IQ, LQ, SQ): entry i cannot allocate until entry i-capacity has
// released. release cycles are recorded in allocation order. The ring
// position is kept as an incrementally wrapped head index rather than
// count%capacity: allocate/release run multiple times per μop and the
// capacities are not powers of two, so the division is a measurable cost.
type occupancyRing struct {
	capacity int
	releases []uint64 // circular: release cycle of the (i mod cap)-th entry
	count    uint64   // total allocations so far
	head     int      // count % capacity, maintained incrementally
}

func newOccupancyRing(capacity int) *occupancyRing {
	return &occupancyRing{capacity: capacity, releases: make([]uint64, capacity)}
}

// allocate returns the earliest cycle (at or after want) at which a new
// entry can be allocated; the caller must follow with release().
func (r *occupancyRing) allocate(want uint64) uint64 {
	if r.count >= uint64(r.capacity) {
		// The slot reused by this entry frees when its previous occupant
		// released.
		if prev := r.releases[r.head]; prev > want {
			want = prev
		}
	}
	return want
}

// release records the release cycle of the most recently allocated entry.
func (r *occupancyRing) release(cycle uint64) {
	r.releases[r.head] = cycle
	r.count++
	r.head++
	if r.head == r.capacity {
		r.head = 0
	}
}

// occupied counts entries still held at the given cycle (diagnostic use:
// pipeline snapshots on hang/cancellation errors).
func (r *occupancyRing) occupied(now uint64) int {
	n := r.count
	if n > uint64(r.capacity) {
		n = uint64(r.capacity)
	}
	held := 0
	for i := uint64(0); i < n; i++ {
		if r.releases[i] > now {
			held++
		}
	}
	return held
}

// iqRing is the cycle span of the instruction queue's counting ring: held
// issue times in [base, base+iqRing) are counted per cycle, later ones go
// to the overflow list. It is a power of two so that a cycle's counter
// index is a mask.
const iqRing = 1 << 10

// issueWindow models a capacity-limited structure whose entries free
// out-of-order (the instruction queue: entries release at issue). A new
// entry can dispatch once fewer than capacity older entries remain
// unissued, i.e. no earlier than the capacity-th largest issue time seen
// so far.
//
// The window holds the capacity largest issue times as per-cycle counts,
// so the smallest held cycle (low) is that bound. Dispatch floors arrive
// non-decreasing and every issue lies above its floor, so a held entry
// below the current floor can never bind again: admit folds such entries
// onto the floor, which keeps the bound exact while letting the counted
// span start at the floor. Held cycles in [base, base+iqRing) live in a
// fixed ring of byte counters (at most capacity <= 255 entries share a
// cycle); the rare ones past the ring end wait in an unsorted overflow
// list (at most capacity entries, plus one during an add) and move into
// the ring when base comes within range of them.
type issueWindow struct {
	capacity int
	held     int    // entries held: min(adds, capacity)
	base     uint64 // no held entry lies below base
	low      uint64 // smallest held cycle, when held > 0
	overMin  uint64 // smallest overflow entry; MaxUint64 when there is none
	over     []uint64
	counts   [iqRing]uint8 // held entries at cycle c, indexed c % iqRing
}

func newIssueWindow(capacity int) *issueWindow {
	if capacity < 1 || capacity > 255 {
		panic("issue window capacity out of range")
	}
	return &issueWindow{capacity: capacity, overMin: math.MaxUint64, over: make([]uint64, 0, capacity+1)}
}

// admit returns the earliest cycle at or after floor at which a new entry
// may dispatch: floor itself until the window has filled, otherwise the
// larger of floor and the capacity-th largest issue time. Successive
// floors must not decrease.
func (w *issueWindow) admit(floor uint64) uint64 {
	if w.held != 0 && w.low < floor {
		w.fold(floor)
	}
	if w.held < w.capacity {
		if floor > w.base {
			w.rebase(floor)
		}
		return floor
	}
	// Every later insertion lies above low, so the ring may start there.
	if w.low > w.base {
		w.rebase(w.low)
	}
	return w.low
}

// add records an entry's issue time, which must not lie below the last
// admit floor. (Until the window fills, an issue below base, which is at
// most that floor, is counted at base: the next admit would fold it there
// anyway.)
func (w *issueWindow) add(issue uint64) {
	if w.held == w.capacity {
		if issue <= w.low {
			return
		}
		w.insert(issue)
		w.evictLow()
		return
	}
	if issue < w.base {
		issue = w.base
	}
	w.insert(issue)
	if w.held == 0 || issue < w.low {
		w.low = issue
	}
	w.held++
}

// insert counts one entry at cycle t >= base.
func (w *issueWindow) insert(t uint64) {
	if t-w.base < iqRing {
		w.counts[t%iqRing]++
		return
	}
	w.over = append(w.over, t)
	if t < w.overMin {
		w.overMin = t
	}
}

// evictLow drops one entry at the smallest held cycle and moves low to
// the next held cycle. Some entry above low must be held.
func (w *issueWindow) evictLow() {
	if w.low-w.base >= iqRing {
		// Only overflow entries are held; the ring is empty.
		w.rebase(w.low)
	}
	i := w.low % iqRing
	w.counts[i]--
	if w.counts[i] != 0 {
		return
	}
	for c := w.low + 1; c-w.base < iqRing; c++ {
		if w.counts[c%iqRing] != 0 {
			w.low = c
			return
		}
	}
	// Nothing is left in the ring: the overflow holds the next entry. The
	// next admit or evictLow rebases the ring onto it.
	w.low = w.overMin
}

// fold moves every held entry below floor onto floor and makes floor the
// base. Requires low < floor.
func (w *issueWindow) fold(floor uint64) {
	n := 0
	for c := w.low; c < floor && c-w.base < iqRing; c++ {
		i := c % iqRing
		n += int(w.counts[i])
		w.counts[i] = 0
	}
	w.counts[floor%iqRing] += uint8(n)
	w.low = floor
	w.rebase(floor)
}

// rebase raises base to b, whose ring counters for [base, b) must be
// clear, and moves overflow entries that now fall inside the ring into
// it, folding any below b onto b.
func (w *issueWindow) rebase(b uint64) {
	w.base = b
	end := b + iqRing
	if w.overMin >= end {
		return
	}
	kept := w.over[:0]
	w.overMin = math.MaxUint64
	for _, t := range w.over {
		if t >= end {
			kept = append(kept, t)
			w.overMin = min(w.overMin, t)
			continue
		}
		w.counts[max(t, b)%iqRing]++
	}
	w.over = kept
}

// occupied counts entries still unissued at the given cycle (diagnostic
// use: pipeline snapshots on hang/cancellation errors). Folding only moves
// entries that lie below the last admit floor, so the count is exact for
// any now at or after that floor.
func (w *issueWindow) occupied(now uint64) int {
	held := 0
	for _, t := range w.over {
		if t > now {
			held++
		}
	}
	start := w.base
	if now >= start {
		start = now + 1
	}
	for c := start; c-w.base < iqRing; c++ {
		held += int(w.counts[c%iqRing])
	}
	return held
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
