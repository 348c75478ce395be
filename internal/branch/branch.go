// Package branch implements the front-end branch prediction structures of
// the simulated machine (Table III): an LTAGE-class direction predictor
// (bimodal base + geometric-history tagged tables), a 4096-entry BTB, and
// a 64-entry return address stack.
package branch

// Stats aggregates predictor behavior.
type Stats struct {
	Lookups     uint64
	DirMispred  uint64 // conditional direction mispredictions
	TargMispred uint64 // target mispredictions (BTB/RAS)
}

// Mispredicts returns total mispredictions of either kind.
func (s *Stats) Mispredicts() uint64 { return s.DirMispred + s.TargMispred }

// MispredictRate returns mispredictions per lookup.
func (s *Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts()) / float64(s.Lookups)
}

const (
	numTagged   = 4
	baseBits    = 13 // 8K-entry bimodal
	taggedBits  = 10 // 1K entries per tagged table
	tagBits     = 11
	maxHistBits = 64
)

var histLens = [numTagged]uint{8, 16, 32, 64}

type taggedEntry struct {
	tag    uint32
	ctr    int8 // -4..3 signed counter; >=0 predicts taken
	useful uint8
}

// loopEntry tracks one branch's loop behavior (the loop predictor that
// makes LTAGE "L-TAGE"): fixed-trip-count loops are predicted exactly.
type loopEntry struct {
	tag   uint32
	trip  uint32 // learned taken-run length before the not-taken exit
	cur   uint32 // current taken-run length
	conf  uint8
	valid bool
}

// Predictor is the LTAGE-class direction predictor: a bimodal base, four
// geometric-history tagged tables, and a loop predictor. Each table is
// allocated on its first write: until then every read sees the zero
// entry, which is exactly a fresh table's content, so a short run pays
// only for the tables its branches train.
type Predictor struct {
	// base holds the bimodal 2-bit counters XOR 1, so the zero value of
	// a fresh table reads as weakly not-taken without an init pass.
	base   []uint8
	tables [numTagged][]taggedEntry
	loops  []loopEntry
	ghist  uint64 // global history (newest bit = LSB)
	Stats  Stats
}

const (
	baseEntries = 1 << baseBits
	tagEntries  = 1 << taggedBits
	loopEntries = 512
)

// NewPredictor returns an empty predictor; its tables are built on first
// write.
func NewPredictor() *Predictor { return &Predictor{} }

func (p *Predictor) loopIndex(pc uint64) (int, uint32) {
	h := pc >> 2
	return int(h % loopEntries), uint32(h & 0x3FFFFF)
}

// loopPredict returns (prediction, usable) from the loop predictor.
func (p *Predictor) loopPredict(pc uint64) (bool, bool) {
	if p.loops == nil {
		return false, false
	}
	i, tag := p.loopIndex(pc)
	e := &p.loops[i]
	if !e.valid || e.tag != tag || e.conf < 2 || e.trip == 0 {
		return false, false
	}
	// Predict taken until the learned trip count is reached.
	return e.cur+1 < e.trip+1 && e.cur < e.trip, true
}

func (p *Predictor) loopTrain(pc uint64, taken bool) {
	if p.loops == nil {
		p.loops = make([]loopEntry, loopEntries)
	}
	i, tag := p.loopIndex(pc)
	e := &p.loops[i]
	if !e.valid || e.tag != tag {
		*e = loopEntry{tag: tag, valid: true}
	}
	if taken {
		e.cur++
		if e.cur > 1<<20 { // runaway: not a loop exit branch
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

func foldHistory(h uint64, bits uint, out uint) uint32 {
	var v uint32
	mask := uint64(1)<<bits - 1
	h &= mask
	for i := uint(0); i < bits; i += out {
		v ^= uint32(h & (1<<out - 1))
		h >>= out
	}
	return v
}

func (p *Predictor) indexTag(pc uint64, t int) (idx uint32, tag uint32) {
	hl := histLens[t]
	fidx := foldHistory(p.ghist, hl, taggedBits)
	ftag := foldHistory(p.ghist, hl, tagBits)
	idx = (uint32(pc>>2) ^ fidx ^ uint32(pc>>(taggedBits+2))) & (1<<taggedBits - 1)
	tag = (uint32(pc>>2) ^ ftag<<1) & (1<<tagBits - 1)
	return
}

// PredictDir predicts the direction of the conditional branch at pc.
func (p *Predictor) PredictDir(pc uint64) bool {
	if pred, ok := p.loopPredict(pc); ok {
		return pred
	}
	for t := numTagged - 1; t >= 0; t-- {
		if p.tables[t] == nil {
			continue
		}
		idx, tag := p.indexTag(pc, t)
		e := &p.tables[t][idx]
		if e.tag == tag && e.useful > 0 {
			return e.ctr >= 0
		}
	}
	if p.base == nil {
		return false // weakly not-taken
	}
	return p.base[(pc>>2)&(1<<baseBits-1)]^1 >= 2
}

// UpdateDir trains the predictor with the branch's actual direction.
func (p *Predictor) UpdateDir(pc uint64, taken bool) {
	predicted := p.PredictDir(pc)
	p.loopTrain(pc, taken)
	// Update the providing tagged entry or the bimodal table.
	provided := false
	for t := numTagged - 1; t >= 0; t-- {
		if p.tables[t] == nil {
			continue
		}
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
	if p.base == nil {
		p.base = make([]uint8, baseEntries)
	}
	bi := (pc >> 2) & (1<<baseBits - 1)
	ctr := p.base[bi] ^ 1
	if taken && ctr < 3 {
		ctr++
	} else if !taken && ctr > 0 {
		ctr--
	}
	p.base[bi] = ctr ^ 1
	// On a misprediction, allocate into a longer-history table.
	if predicted != taken && !provided {
		for t := 0; t < numTagged; t++ {
			if p.tables[t] == nil {
				p.tables[t] = make([]taggedEntry, tagEntries)
			}
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// btbChunk is the number of BTB entries materialized together on the
// first update into their range.
const btbChunk = 64

type btbEntry struct {
	tag    uint64
	target uint64
}

// BTB is the branch target buffer. Entry i lives at
// chunks[i/btbChunk][i%btbChunk]; a nil chunk has never been updated,
// and lookups in its range miss without allocating, so a short run pays
// for the branches it executes rather than the full capacity.
type BTB struct {
	entries int
	chunks  []*[btbChunk]btbEntry
}

// NewBTB returns a direct-mapped BTB with the given entry count.
func NewBTB(entries int) *BTB {
	return &BTB{entries: entries, chunks: make([]*[btbChunk]btbEntry, (entries+btbChunk-1)/btbChunk)}
}

// Lookup returns the predicted target for pc and whether the BTB hit.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) % uint64(b.entries)
	ch := b.chunks[i/btbChunk]
	if ch == nil {
		return 0, false
	}
	if e := &ch[i%btbChunk]; e.tag == pc && pc != 0 {
		return e.target, true
	}
	return 0, false
}

// Update records the actual target of the branch at pc.
func (b *BTB) Update(pc, target uint64) {
	i := (pc >> 2) % uint64(b.entries)
	ch := b.chunks[i/btbChunk]
	if ch == nil {
		ch = new([btbChunk]btbEntry)
		b.chunks[i/btbChunk] = ch
	}
	ch[i%btbChunk] = btbEntry{tag: pc, target: target}
}

// RAS is the return address stack.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS returns a RAS of the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth), depth: depth}
}

// Push records a call's return address.
func (r *RAS) Push(addr uint64) {
	r.stack[r.top%r.depth] = addr
	r.top++
}

// Pop predicts the target of a return.
func (r *RAS) Pop() uint64 {
	if r.top == 0 {
		return 0
	}
	r.top--
	return r.stack[r.top%r.depth]
}

// Unit bundles the front-end prediction structures with a unified
// predict/train interface over trace records.
type Unit struct {
	Dir *Predictor
	Btb *BTB
	Ras *RAS
}

// NewUnit returns a Table III-configured branch unit (LTAGE, 4096-entry
// BTB, 64-entry RAS).
func NewUnit() *Unit {
	return &Unit{Dir: NewPredictor(), Btb: NewBTB(4096), Ras: NewRAS(64)}
}

// Kind classifies a branch for prediction purposes.
type Kind uint8

const (
	KindCond Kind = iota
	KindDirect
	KindIndirect
	KindCall
	KindIndirectCall
	KindRet
)

// Predict returns the predicted (taken, target) for a branch of the given
// kind at pc whose fall-through is next.
func (u *Unit) Predict(kind Kind, pc, next uint64) (bool, uint64) {
	u.Dir.Stats.Lookups++
	switch kind {
	case KindCond:
		if u.Dir.PredictDir(pc) {
			if t, ok := u.Btb.Lookup(pc); ok {
				return true, t
			}
			return true, 0 // predicted taken, unknown target
		}
		return false, next
	case KindDirect, KindCall:
		t, ok := u.Btb.Lookup(pc)
		if !ok {
			return true, 0
		}
		return true, t
	case KindIndirect, KindIndirectCall:
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

// Resolve trains the predictor with the actual outcome and reports whether
// the earlier prediction was a misprediction.
func (u *Unit) Resolve(kind Kind, pc, next uint64, predTaken bool, predTarget uint64, taken bool, target uint64) bool {
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
