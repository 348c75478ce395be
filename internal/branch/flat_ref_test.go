package branch

import (
	"math/rand"
	"testing"
)

// This file keeps the flat, eagerly built predictor and BTB as the
// reference the lazily built production tables are checked against:
// a bimodal table initialized to weakly not-taken by an explicit pass,
// and a BTB with every entry allocated up front.

type flatPredictor struct {
	base   []uint8 // 2-bit counters
	tables [numTagged][]taggedEntry
	loops  []loopEntry
	ghist  uint64
	Stats  Stats
}

func newFlatPredictor() *flatPredictor {
	p := &flatPredictor{base: make([]uint8, 1<<baseBits), loops: make([]loopEntry, 512)}
	for i := range p.base {
		p.base[i] = 1 // weakly not-taken
	}
	for t := 0; t < numTagged; t++ {
		p.tables[t] = make([]taggedEntry, 1<<taggedBits)
	}
	return p
}

func (p *flatPredictor) loopIndex(pc uint64) (int, uint32) {
	h := pc >> 2
	return int(h % uint64(len(p.loops))), uint32(h & 0x3FFFFF)
}

func (p *flatPredictor) loopPredict(pc uint64) (bool, bool) {
	i, tag := p.loopIndex(pc)
	e := &p.loops[i]
	if !e.valid || e.tag != tag || e.conf < 2 || e.trip == 0 {
		return false, false
	}
	return e.cur+1 < e.trip+1 && e.cur < e.trip, true
}

func (p *flatPredictor) loopTrain(pc uint64, taken bool) {
	i, tag := p.loopIndex(pc)
	e := &p.loops[i]
	if !e.valid || e.tag != tag {
		*e = loopEntry{tag: tag, valid: true}
	}
	if taken {
		e.cur++
		if e.cur > 1<<20 {
			e.conf = 0
			e.cur = 0
		}
		return
	}
	if e.cur == e.trip && e.trip > 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.trip = e.cur
		e.conf = 0
	}
	e.cur = 0
}

func (p *flatPredictor) indexTag(pc uint64, t int) (idx uint32, tag uint32) {
	hl := histLens[t]
	fidx := foldHistory(p.ghist, hl, taggedBits)
	ftag := foldHistory(p.ghist, hl, tagBits)
	idx = (uint32(pc>>2) ^ fidx ^ uint32(pc>>(taggedBits+2))) & (1<<taggedBits - 1)
	tag = (uint32(pc>>2) ^ ftag<<1) & (1<<tagBits - 1)
	return
}

func (p *flatPredictor) PredictDir(pc uint64) bool {
	if pred, ok := p.loopPredict(pc); ok {
		return pred
	}
	for t := numTagged - 1; t >= 0; t-- {
		idx, tag := p.indexTag(pc, t)
		e := &p.tables[t][idx]
		if e.tag == tag && e.useful > 0 {
			return e.ctr >= 0
		}
	}
	return p.base[(pc>>2)&(1<<baseBits-1)] >= 2
}

func (p *flatPredictor) UpdateDir(pc uint64, taken bool) {
	predicted := p.PredictDir(pc)
	p.loopTrain(pc, taken)
	provided := false
	for t := numTagged - 1; t >= 0; t-- {
		idx, tag := p.indexTag(pc, t)
		e := &p.tables[t][idx]
		if e.tag == tag && e.useful > 0 {
			if taken && e.ctr < 3 {
				e.ctr++
			} else if !taken && e.ctr > -4 {
				e.ctr--
			}
			if (e.ctr >= 0) == taken && e.useful < 3 {
				e.useful++
			}
			provided = true
			break
		}
	}
	bi := (pc >> 2) & (1<<baseBits - 1)
	if taken && p.base[bi] < 3 {
		p.base[bi]++
	} else if !taken && p.base[bi] > 0 {
		p.base[bi]--
	}
	if predicted != taken && !provided {
		for t := 0; t < numTagged; t++ {
			idx, tag := p.indexTag(pc, t)
			e := &p.tables[t][idx]
			if e.useful == 0 {
				e.tag = tag
				e.useful = 1
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
			e.useful--
		}
	}
	p.ghist = p.ghist<<1 | b2u(taken)
}

type flatBTB struct {
	entries int
	tags    []uint64
	targets []uint64
}

func newFlatBTB(entries int) *flatBTB {
	return &flatBTB{entries: entries, tags: make([]uint64, entries), targets: make([]uint64, entries)}
}

func (b *flatBTB) Lookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) % uint64(b.entries)
	if b.tags[i] == pc && pc != 0 {
		return b.targets[i], true
	}
	return 0, false
}

func (b *flatBTB) Update(pc, target uint64) {
	i := (pc >> 2) % uint64(b.entries)
	b.tags[i] = pc
	b.targets[i] = target
}

type flatUnit struct {
	Dir *flatPredictor
	Btb *flatBTB
	Ras *RAS
}

func newFlatUnit() *flatUnit {
	return &flatUnit{Dir: newFlatPredictor(), Btb: newFlatBTB(4096), Ras: NewRAS(64)}
}

func (u *flatUnit) Predict(kind Kind, pc, next uint64) (bool, uint64) {
	u.Dir.Stats.Lookups++
	switch kind {
	case KindCond:
		if u.Dir.PredictDir(pc) {
			if t, ok := u.Btb.Lookup(pc); ok {
				return true, t
			}
			return true, 0
		}
		return false, next
	case KindDirect, KindCall, KindIndirect, KindIndirectCall:
		t, ok := u.Btb.Lookup(pc)
		if !ok {
			return true, 0
		}
		return true, t
	case KindRet:
		return true, u.Ras.Pop()
	}
	return false, next
}

func (u *flatUnit) Resolve(kind Kind, pc, next uint64, predTaken bool, predTarget uint64, taken bool, target uint64) bool {
	mis := false
	switch kind {
	case KindCond:
		u.Dir.UpdateDir(pc, taken)
		if predTaken != taken {
			u.Dir.Stats.DirMispred++
			mis = true
		} else if taken && predTarget != target {
			u.Dir.Stats.TargMispred++
			mis = true
		}
		if taken {
			u.Btb.Update(pc, target)
		}
	case KindCall, KindIndirectCall:
		u.Ras.Push(next)
		u.Btb.Update(pc, target)
		if predTarget != target {
			u.Dir.Stats.TargMispred++
			mis = true
		}
	case KindDirect, KindIndirect:
		u.Btb.Update(pc, target)
		if predTarget != target {
			u.Dir.Stats.TargMispred++
			mis = true
		}
	case KindRet:
		if predTarget != target {
			u.Dir.Stats.TargMispred++
			mis = true
		}
	}
	return mis
}

// TestUnitMatchesFlatReference drives random branch streams through the
// production unit and the flat reference side by side and requires every
// Predict and Resolve return value, and the final Stats, to be identical.
// The streams mix a dense code region (loops and biased branches over
// consecutive PCs), sparse PCs spread over the address space, PCs that
// alias each other in the BTB and the bimodal table, and pc == 0, whose
// BTB entry never hits.
func TestUnitMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pcs []uint64
		for k := 0; k < 256; k++ { // dense: a contiguous text region
			pcs = append(pcs, 0x400000+4*uint64(k))
		}
		for k := 0; k < 64; k++ { // sparse: anywhere, 4-byte aligned
			pcs = append(pcs, uint64(rng.Int63n(1<<40))&^3)
		}
		for k := 1; k <= 8; k++ { // BTB and bimodal conflicts
			pcs = append(pcs, 0x400000+uint64(k)*4096*4, 0x400000+uint64(k)*(1<<baseBits)*4)
		}
		pcs = append(pcs, 0)
		if seed%2 == 0 {
			pcs = pcs[256:] // sparse-only streams touch few chunks
		}
		kinds := make([]Kind, len(pcs))
		bias := make([]int, len(pcs))
		trip := make([]int, len(pcs))
		for i := range pcs {
			kinds[i] = Kind(rng.Intn(int(KindRet) + 1))
			bias[i] = rng.Intn(101)
			trip[i] = rng.Intn(9) + 1
		}
		iter := make([]int, len(pcs))

		got, want := NewUnit(), newFlatUnit()
		for step := 0; step < 60_000; step++ {
			i := rng.Intn(len(pcs))
			if rng.Intn(4) == 0 { // repeat a hot loop branch
				i = rng.Intn(8)
			}
			pc, kind := pcs[i], kinds[i]
			next := pc + 4
			gt, gtg := got.Predict(kind, pc, next)
			wt, wtg := want.Predict(kind, pc, next)
			if gt != wt || gtg != wtg {
				t.Fatalf("seed %d step %d: Predict(%d, %#x) = (%v, %#x), reference (%v, %#x)",
					seed, step, kind, pc, gt, gtg, wt, wtg)
			}
			var taken bool
			switch {
			case kind != KindCond:
				taken = true
			case seed%3 == 0: // fixed trip counts for the loop predictor
				iter[i]++
				taken = iter[i]%(trip[i]+1) != 0
			default:
				taken = rng.Intn(100) < bias[i]
			}
			target := next
			if taken {
				target = 0x500000 + 4*uint64(rng.Intn(3))
				if kind == KindDirect || kind == KindCall || kind == KindCond {
					target = 0x500000 + 4*uint64(i)
				}
			}
			gm := got.Resolve(kind, pc, next, gt, gtg, taken, target)
			wm := want.Resolve(kind, pc, next, wt, wtg, taken, target)
			if gm != wm {
				t.Fatalf("seed %d step %d: Resolve(%d, %#x) = %v, reference %v", seed, step, kind, pc, gm, wm)
			}
		}
		if got.Dir.Stats != want.Dir.Stats {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, got.Dir.Stats, want.Dir.Stats)
		}
		if got.Dir.Stats.Mispredicts() == 0 || got.Dir.Stats.Lookups == 0 {
			t.Fatalf("seed %d: vacuous stream, stats %+v", seed, got.Dir.Stats)
		}
	}
}

// TestBTBLookupAllocatesNothing pins the pay-as-you-touch contract: a
// lookup in a never-updated range misses without materializing its
// chunk, and an update materializes exactly one.
func TestBTBLookupAllocatesNothing(t *testing.T) {
	b := NewBTB(4096)
	for pc := uint64(4); pc < 4096*4*2; pc += 4 {
		if _, ok := b.Lookup(pc); ok {
			t.Fatalf("cold BTB hit at %#x", pc)
		}
	}
	if _, ok := b.Lookup(0); ok {
		t.Fatal("pc 0 must never hit")
	}
	count := func() (n int) {
		for _, ch := range b.chunks {
			if ch != nil {
				n++
			}
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("lookups materialized %d chunks", n)
	}
	b.Update(0x400100, 0x400800)
	if n := count(); n != 1 {
		t.Fatalf("one update materialized %d chunks, want 1", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Lookup(0x7fff0000) }); allocs != 0 {
		t.Fatalf("lookup allocated %.0f times", allocs)
	}
}
