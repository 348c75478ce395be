package tracker

import (
	"chex86/internal/cache"
	"chex86/internal/core"
	"chex86/internal/mem"
)

// AliasTable is the 5-level hierarchical shadow alias table (Section V-C):
// for every 8-byte-aligned virtual address hosting a spilled pointer alias,
// the lowest-level entry holds the PID of the spilled pointer. The table
// lives in the privileged shadow half; leaf pages are materialized into
// shadow memory so footprint appears in the Figure 9 accounting.
type AliasTable struct {
	entries map[uint64]core.PID
	m       *mem.Memory
	pt      *mem.PageTable

	// shadowPageOf maps a user page hosting aliases to its materialized
	// leaf shadow page. memoPage/memoLeaf cache the last mapping looked
	// up: spill traffic clusters on a few stack/heap pages, and leaf
	// pages are never unmapped, so the memo only ever goes stale by
	// being replaced.
	shadowPageOf map[uint64]uint64
	memoPage     uint64
	memoLeaf     uint64 // 0 = memo empty
	nextLeaf     uint64

	// WalkLevels is the number of table levels a hardware walk traverses
	// on an alias-cache miss. The hardware walker caches the upper levels
	// (as page walkers do), so of the 5 levels only the lowest ones are
	// charged.
	WalkLevels int

	Walks uint64 // hardware walker invocations
}

// NewAliasTable returns an empty alias table materialized into m with
// alias-hosting bits maintained in pt.
func NewAliasTable(m *mem.Memory, pt *mem.PageTable) *AliasTable {
	return &AliasTable{
		entries:      make(map[uint64]core.PID),
		m:            m,
		pt:           pt,
		shadowPageOf: make(map[uint64]uint64),
		nextLeaf:     mem.AliasBase,
		WalkLevels:   2,
	}
}

func alignDown8(a uint64) uint64 { return a &^ 7 }

// leafPage returns the materialized leaf shadow page for userPage through
// the one-entry memo.
func (t *AliasTable) leafPage(userPage uint64) (uint64, bool) {
	if t.memoLeaf != 0 && t.memoPage == userPage {
		return t.memoLeaf, true
	}
	leaf, ok := t.shadowPageOf[userPage]
	if ok {
		t.memoPage, t.memoLeaf = userPage, leaf
	}
	return leaf, ok
}

// Set records that the 8-byte word at addr holds a spilled pointer with
// the given PID (pid 0 clears the entry). It maintains the page table's
// alias-hosting bit and the leaf shadow page.
func (t *AliasTable) Set(addr uint64, pid core.PID) {
	addr = alignDown8(addr)
	if pid == 0 {
		delete(t.entries, addr)
		return
	}
	t.entries[addr] = pid
	userPage := mem.PageBase(addr)
	if t.pt != nil {
		t.pt.SetAliasHosting(userPage, true)
	}
	if t.m != nil {
		leaf, ok := t.leafPage(userPage)
		if !ok {
			leaf = t.nextLeaf
			t.nextLeaf += mem.PageSize
			t.shadowPageOf[userPage] = leaf
			t.memoPage, t.memoLeaf = userPage, leaf
		}
		off := (addr - userPage) / 8 * 8
		t.m.WriteU64(leaf+off, uint64(pid))
	}
}

// LeafAddr returns the shadow address of the alias-table leaf entry for
// addr, or 0 if no leaf page exists for its user page yet.
func (t *AliasTable) LeafAddr(addr uint64) uint64 {
	addr = alignDown8(addr)
	userPage := mem.PageBase(addr)
	leaf, ok := t.leafPage(userPage)
	if !ok {
		return 0
	}
	return leaf + (addr-userPage)/8*8
}

// Lookup returns the PID recorded for the word at addr (0 if none).
func (t *AliasTable) Lookup(addr uint64) core.PID {
	return t.entries[alignDown8(addr)]
}

// Walk performs a hardware table walk for addr, returning the PID and the
// shadow addresses the walker touches (for hierarchy-latency charging).
func (t *AliasTable) Walk(addr uint64) (core.PID, []uint64) {
	return t.WalkInto(addr, nil)
}

// WalkInto is Walk with a caller-provided scratch buffer for the touched
// shadow addresses: the result is appended to buf (pass buf[:0] to reuse
// its backing array), so steady-state callers perform no allocation. The
// returned slice is only valid until the caller's next WalkInto with the
// same buffer.
func (t *AliasTable) WalkInto(addr uint64, buf []uint64) (core.PID, []uint64) {
	t.Walks++
	addr = alignDown8(addr)
	userPage := mem.PageBase(addr)
	leaf, ok := t.leafPage(userPage)
	if !ok {
		leaf = mem.AliasBase // a walk that terminates early at a non-present level
	}
	for l := 0; l < t.WalkLevels; l++ {
		buf = append(buf, leaf+uint64(l)*8)
	}
	return t.entries[addr], buf
}

// Entries returns the number of live alias entries.
func (t *AliasTable) Entries() int { return len(t.entries) }

// FootprintBytes returns the shadow memory consumed by materialized leaf
// pages.
func (t *AliasTable) FootprintBytes() uint64 {
	return uint64(len(t.shadowPageOf)) * mem.PageSize
}

// NewAliasCache returns the in-processor alias cache: 2-way set-associative
// with the given entry count, augmented by a fully-associative victim cache
// (256+32 entries in the default CHEx86 design), keyed by the spilled
// pointer's 8-byte-aligned address.
func NewAliasCache(entries, victim int) *cache.KeyCache {
	return cache.NewKeyCache("alias", entries, 2, victim)
}

// predEntry is one pointer-reload predictor entry (Figure 4).
type predEntry struct {
	tag    uint32
	pid    core.PID
	stride int64 // committed stride
	last   int64 // most recent observed delta (2-delta confirmation)
	bias   uint8 // 2-bit saturating confidence
}

// PredictorStats aggregates pointer-reload prediction behavior.
type PredictorStats struct {
	Lookups     uint64
	Predictions uint64 // non-zero PID predictions issued
	Correct     uint64
	PNA0        uint64 // predicted pointer, actually not tracked (Fig. 5c)
	P0AN        uint64 // predicted untracked, actually a pointer (Fig. 5d)
	PMAN        uint64 // predicted wrong pointer (Fig. 5e)
	Blacklisted uint64 // lookups filtered by the blacklist
}

// Mispredictions returns the total mispredicted pointer reloads.
func (s *PredictorStats) Mispredictions() uint64 { return s.PNA0 + s.P0AN + s.PMAN }

// MispredictionRate returns mispredictions over all predictor lookups that
// were resolved (excluding blacklist-filtered ones).
func (s *PredictorStats) MispredictionRate() float64 {
	resolved := s.Correct + s.Mispredictions()
	if resolved == 0 {
		return 0
	}
	return float64(s.Mispredictions()) / float64(resolved)
}

// AliasPredictor is the stride-based pointer-reload predictor of Figure 4:
// a PC-indexed table of (tag, PID, stride, 2-bit bias) entries plus a
// blacklist of non-pointer-reload loads to avoid destructive aliasing.
// Both tables are built in chunks on first write, so a short run pays
// for the loads it trains rather than the full capacity.
type AliasPredictor struct {
	entries chunkedTable[predEntry]
	// blacklist is a direct-mapped table of tagged 2-bit counters; a
	// saturated counter filters the load from prediction.
	blacklist chunkedTable[blEntry]
	Stats     PredictorStats
}

// blEntry is one blacklist slot: the load's PC tag and its 2-bit
// not-a-pointer counter.
type blEntry struct {
	tag uint32
	ctr uint8
}

// blacklistEntries is the blacklist's slot count.
const blacklistEntries = 1024

// NewAliasPredictor returns a predictor with the given entry count (512 in
// the default CHEx86 design).
func NewAliasPredictor(entries int) *AliasPredictor {
	return &AliasPredictor{
		entries:   newChunkedTable[predEntry](entries),
		blacklist: newChunkedTable[blEntry](blacklistEntries),
	}
}

func (p *AliasPredictor) index(pc uint64) (int, uint32) {
	h := pc >> 2
	n := uint64(p.entries.n)
	return int(h % n), uint32(h / n & 0xFFFF)
}

func (p *AliasPredictor) blIndex(pc uint64) (int, uint32) {
	h := pc >> 2
	return int(h % blacklistEntries), uint32(h & 0xFFFFFFFF)
}

// LiveEntries returns the number of trained (non-zero-PID) predictor
// entries.
func (p *AliasPredictor) LiveEntries() int {
	n := 0
	p.entries.each(func(_ int, e *predEntry) {
		if e.pid != 0 {
			n++
		}
	})
	return n
}

// CorruptNth corrupts the n-th trained entry (index order, n taken modulo
// the trained count): its PID and stride are perturbed as if the storage
// cell flipped — the fault-injection hook for the pointer-reload
// predictor. Prediction output is advisory (ResolveLoad always propagates
// the actual PID from the shadow alias table), so a corrupted entry costs
// mispredictions, never correctness. It returns the corrupted entry's PC
// tag slot index and whether any trained entry existed.
func (p *AliasPredictor) CorruptNth(n int) (int, bool) {
	total := p.LiveEntries()
	if total == 0 {
		return 0, false
	}
	n %= total
	idx := -1
	p.entries.each(func(i int, e *predEntry) {
		if e.pid == 0 || idx >= 0 {
			return
		}
		if n > 0 {
			n--
			return
		}
		e.pid ^= 0x2A
		if e.pid <= 0 {
			e.pid = 1
		}
		e.stride = -e.stride + 1
		e.bias = 3 // high confidence in garbage: worst case for timing
		idx = i
	})
	return idx, true
}

// tableChunk is the number of entries a chunkedTable materializes
// together on the first write into their range.
const tableChunk = 64

// chunkedTable is a fixed-size table whose entries live at
// chunks[i/tableChunk][i%tableChunk]. A nil chunk was never written:
// reads in its range see the zero entry without allocating.
type chunkedTable[E any] struct {
	n      int
	chunks []*[tableChunk]E
}

func newChunkedTable[E any](n int) chunkedTable[E] {
	return chunkedTable[E]{n: n, chunks: make([]*[tableChunk]E, (n+tableChunk-1)/tableChunk)}
}

// at returns entry i for reading, or nil when its chunk was never
// written (the entry is zero).
func (t *chunkedTable[E]) at(i int) *E {
	if ch := t.chunks[i/tableChunk]; ch != nil {
		return &ch[i%tableChunk]
	}
	return nil
}

// slot returns entry i for writing, materializing its chunk.
func (t *chunkedTable[E]) slot(i int) *E {
	ch := t.chunks[i/tableChunk]
	if ch == nil {
		ch = new([tableChunk]E)
		t.chunks[i/tableChunk] = ch
	}
	return &ch[i%tableChunk]
}

// each visits every materialized entry in index order; entries of
// unwritten chunks are zero and skipped.
func (t *chunkedTable[E]) each(f func(i int, e *E)) {
	for c, ch := range t.chunks {
		if ch == nil {
			continue
		}
		for j := range ch {
			if i := c*tableChunk + j; i < t.n {
				f(i, &ch[j])
			}
		}
	}
}

// Predict returns the predicted PID for the load at pc (0 = not a pointer
// reload). Blacklisted loads always predict 0.
func (p *AliasPredictor) Predict(pc uint64) core.PID {
	p.Stats.Lookups++
	bi, bt := p.blIndex(pc)
	if b := p.blacklist.at(bi); b != nil && b.tag == bt && b.ctr >= 2 {
		p.Stats.Blacklisted++
		return 0
	}
	i, tag := p.index(pc)
	e := p.entries.at(i)
	if e == nil || e.tag != tag || e.pid == 0 {
		return 0
	}
	p.Stats.Predictions++
	if e.bias < 2 {
		// Low confidence in the stride: fall back to the last observed
		// PID. A wrong non-zero prediction recovers through the cheap
		// forwarding path (PMAN), whereas predicting "not a reload" for
		// an actual reload forces a pipeline flush (P0AN).
		return e.pid
	}
	next := e.pid + e.stride
	if next <= 0 {
		next = e.pid
	}
	return next
}

// Resolve trains the predictor with the actual PID observed at execute and
// classifies the outcome, returning the misprediction class (or OutcomeOK).
func (p *AliasPredictor) Resolve(pc uint64, predicted, actual core.PID) Outcome {
	// Blacklist training: loads that keep resolving to non-pointers get
	// filtered; a pointer reload rescinds the blacklisting.
	bi, bt := p.blIndex(pc)
	if actual == 0 {
		b := p.blacklist.slot(bi)
		if b.tag == bt {
			if b.ctr < 3 {
				b.ctr++
			}
		} else {
			*b = blEntry{tag: bt, ctr: 1}
		}
	} else if b := p.blacklist.at(bi); b != nil && b.tag == bt && b.ctr > 0 {
		b.ctr = 0
	}

	// Stride training (2-delta): the committed stride changes only when
	// the same new delta is observed twice in a row, so periodic wrap-
	// arounds (a buffer table revisited from its start) and batch
	// boundaries are tolerated as one-offs instead of destroying the
	// learned stride.
	if actual != 0 {
		i, tag := p.index(pc)
		e := p.entries.slot(i)
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

// Outcome classifies a pointer-reload prediction resolution (Figure 5).
type Outcome uint8

const (
	// OutcomeOK: prediction matched the actual PID (including 0/0).
	OutcomeOK Outcome = iota
	// OutcomePNA0: predicted PID(N), actual PID(0) — the injected
	// capability check is marked an x86 zero-idiom and squashed at the
	// instruction queue before dispatch.
	OutcomePNA0
	// OutcomeP0AN: predicted PID(0), actual PID(N) — the pipeline is
	// flushed and execution restarts at the offending instruction with
	// the right capability checks injected.
	OutcomeP0AN
	// OutcomePMAN: predicted PID(M), actual PID(N) — the right PID is
	// forwarded and the tracking structures updated; no flush.
	OutcomePMAN
)

var outcomeNames = [...]string{"ok", "PNA0", "P0AN", "PMAN"}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome?"
}
