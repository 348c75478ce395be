package tracker

import (
	"math/rand"
	"testing"

	"chex86/internal/core"
)

// flatAliasPredictor is the eagerly allocated pointer-reload predictor
// the chunked production tables replaced: every entry and blacklist slot
// exists from construction. It is the reference the lazily built
// AliasPredictor is checked against.
type flatAliasPredictor struct {
	entries   []predEntry
	blacklist []uint8
	blTags    []uint32
	Stats     PredictorStats
}

func newFlatAliasPredictor(entries int) *flatAliasPredictor {
	return &flatAliasPredictor{
		entries:   make([]predEntry, entries),
		blacklist: make([]uint8, 1024),
		blTags:    make([]uint32, 1024),
	}
}

func (p *flatAliasPredictor) index(pc uint64) (int, uint32) {
	h := pc >> 2
	return int(h % uint64(len(p.entries))), uint32(h / uint64(len(p.entries)) & 0xFFFF)
}

func (p *flatAliasPredictor) blIndex(pc uint64) (int, uint32) {
	h := pc >> 2
	return int(h % uint64(len(p.blacklist))), uint32(h & 0xFFFFFFFF)
}

func (p *flatAliasPredictor) LiveEntries() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].pid != 0 {
			n++
		}
	}
	return n
}

func (p *flatAliasPredictor) CorruptNth(n int) (int, bool) {
	total := p.LiveEntries()
	if total == 0 {
		return 0, false
	}
	n %= total
	for i := range p.entries {
		if p.entries[i].pid == 0 {
			continue
		}
		if n == 0 {
			e := &p.entries[i]
			e.pid ^= 0x2A
			if e.pid <= 0 {
				e.pid = 1
			}
			e.stride = -e.stride + 1
			e.bias = 3
			return i, true
		}
		n--
	}
	return 0, false
}

func (p *flatAliasPredictor) Predict(pc uint64) core.PID {
	p.Stats.Lookups++
	bi, bt := p.blIndex(pc)
	if p.blTags[bi] == bt && p.blacklist[bi] >= 2 {
		p.Stats.Blacklisted++
		return 0
	}
	i, tag := p.index(pc)
	e := &p.entries[i]
	if e.tag != tag || e.pid == 0 {
		return 0
	}
	p.Stats.Predictions++
	if e.bias < 2 {
		return e.pid
	}
	next := e.pid + e.stride
	if next <= 0 {
		next = e.pid
	}
	return next
}

func (p *flatAliasPredictor) Resolve(pc uint64, predicted, actual core.PID) Outcome {
	bi, bt := p.blIndex(pc)
	if actual == 0 {
		if p.blTags[bi] == bt {
			if p.blacklist[bi] < 3 {
				p.blacklist[bi]++
			}
		} else {
			p.blTags[bi] = bt
			p.blacklist[bi] = 1
		}
	} else if p.blTags[bi] == bt && p.blacklist[bi] > 0 {
		p.blacklist[bi] = 0
	}
	if actual != 0 {
		i, tag := p.index(pc)
		e := &p.entries[i]
		if e.tag == tag && e.pid != 0 {
			stride := actual - e.pid
			switch {
			case stride == e.stride:
				if e.bias < 3 {
					e.bias++
				}
			case stride == e.last:
				e.stride = stride
				e.bias = 2
			default:
				if e.bias > 0 {
					e.bias--
				}
			}
			e.last = stride
			e.pid = actual
		} else {
			*e = predEntry{tag: tag, pid: actual, stride: 0, bias: 1}
		}
	}
	switch {
	case predicted == actual:
		if predicted != 0 {
			p.Stats.Correct++
		}
		return OutcomeOK
	case predicted != 0 && actual == 0:
		p.Stats.PNA0++
		return OutcomePNA0
	case predicted == 0 && actual != 0:
		p.Stats.P0AN++
		return OutcomeP0AN
	default:
		p.Stats.PMAN++
		return OutcomePMAN
	}
}

// TestAliasPredictorMatchesFlatReference drives the chunked predictor and
// the flat one with identical random load streams — dense and sparse
// PCs, index and blacklist conflicts, strided, repeating and zero PIDs,
// including the PC 0 whose blacklist tag equals an empty slot's — and
// requires every prediction, outcome, statistic, live-entry count and
// fault-injection corruption to agree.
func TestAliasPredictorMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := 512
		if seed%3 == 0 {
			entries = 200 // not a multiple of the chunk size
		}
		var pcs []uint64
		for k := 0; k < 128; k++ { // dense: a contiguous text region
			pcs = append(pcs, 0x400000+4*uint64(k))
		}
		for k := 0; k < 64; k++ { // sparse: anywhere, 4-byte aligned
			pcs = append(pcs, uint64(rng.Int63n(1<<40))&^3)
		}
		for k := 1; k <= 8; k++ { // predictor-index and blacklist conflicts
			pcs = append(pcs, 0x400000+uint64(k*entries)*4, 0x400000+uint64(k)*1024*4)
		}
		pcs = append(pcs, 0)
		if seed%2 == 0 {
			pcs = pcs[128:] // sparse-only streams touch few chunks
		}
		kind := make([]int, len(pcs)) // 0 never a pointer, 1 strided, 2 mixed
		pid := make([]core.PID, len(pcs))
		stride := make([]core.PID, len(pcs))
		for i := range pcs {
			kind[i] = rng.Intn(3)
			pid[i] = core.PID(1 + rng.Intn(50))
			stride[i] = core.PID(rng.Intn(5) - 2)
		}

		got, want := NewAliasPredictor(entries), newFlatAliasPredictor(entries)
		for step := 0; step < 40_000; step++ {
			i := rng.Intn(len(pcs))
			pc := pcs[i]
			gp, wp := got.Predict(pc), want.Predict(pc)
			if gp != wp {
				t.Fatalf("seed %d step %d: Predict(%#x) = %d, reference %d", seed, step, pc, gp, wp)
			}
			var actual core.PID
			switch kind[i] {
			case 1:
				pid[i] += stride[i]
				if pid[i] <= 0 {
					pid[i] = 1
				}
				actual = pid[i]
			case 2:
				if rng.Intn(3) > 0 {
					actual = core.PID(1 + rng.Intn(50))
				}
			}
			if g, w := got.Resolve(pc, gp, actual), want.Resolve(pc, wp, actual); g != w {
				t.Fatalf("seed %d step %d: Resolve(%#x, %d, %d) = %v, reference %v", seed, step, pc, gp, actual, g, w)
			}
			if step%1000 == 0 {
				if g, w := got.LiveEntries(), want.LiveEntries(); g != w {
					t.Fatalf("seed %d step %d: %d live entries, reference %d", seed, step, g, w)
				}
				n := rng.Intn(64)
				gi, gok := got.CorruptNth(n)
				wi, wok := want.CorruptNth(n)
				if gi != wi || gok != wok {
					t.Fatalf("seed %d step %d: CorruptNth(%d) = (%d, %v), reference (%d, %v)", seed, step, n, gi, gok, wi, wok)
				}
			}
		}
		if got.Stats != want.Stats {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, got.Stats, want.Stats)
		}
	}
}

// TestAliasPredictorBuiltOnFirstWrite pins the construction cost: a new
// predictor holds no entries, lookups never allocate, and one training
// write materializes one chunk of each table, not the whole table.
func TestAliasPredictorBuiltOnFirstWrite(t *testing.T) {
	p := NewAliasPredictor(512)
	if allocs := testing.AllocsPerRun(100, func() { p.Predict(0x400100) }); allocs != 0 {
		t.Fatalf("Predict on an empty predictor allocated %.1f times", allocs)
	}
	built := func(chunks int, at func(int) bool) int {
		n := 0
		for c := 0; c < chunks; c++ {
			if at(c) {
				n++
			}
		}
		return n
	}
	live := func() (int, int) {
		return built(len(p.entries.chunks), func(c int) bool { return p.entries.chunks[c] != nil }),
			built(len(p.blacklist.chunks), func(c int) bool { return p.blacklist.chunks[c] != nil })
	}
	if e, b := live(); e != 0 || b != 0 {
		t.Fatalf("new predictor has %d entry and %d blacklist chunks, want 0", e, b)
	}
	p.Resolve(0x400100, 0, 7)
	p.Resolve(0x400200, 0, 0)
	if e, b := live(); e != 1 || b != 1 {
		t.Fatalf("after two trainings: %d entry and %d blacklist chunks, want 1 and 1", e, b)
	}
}
