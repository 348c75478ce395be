package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chex86/internal/mem"
)

func TestLineCacheHitMiss(t *testing.T) {
	c := NewLineCache("t", 1024, 2, 64, 4) // 16 lines, 8 sets, 2 ways
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("cold cache cannot hit")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("second access must hit")
	}
	if hit, _, _ := c.Access(32, false); !hit {
		t.Fatal("same-line access must hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLineCacheLRUAndWriteback(t *testing.T) {
	c := NewLineCache("t", 2*64, 2, 64, 1) // one set, two ways
	c.Access(0, true)                      // dirty
	c.Access(1<<12, false)
	c.Access(0, false) // refresh line 0's LRU
	// Fill a third line: evicts the LRU (the clean one at 1<<12).
	if _, _, wb := c.Access(2<<12, false); wb {
		t.Fatal("clean eviction must not write back")
	}
	if !c.Contains(0) {
		t.Fatal("recently-used dirty line evicted prematurely")
	}
	// Now evict the dirty line.
	hit, wbAddr, wb := c.Access(3<<12, false)
	if hit {
		t.Fatal("unexpected hit")
	}
	if !wb || wbAddr != 0 {
		t.Fatalf("dirty eviction must report writeback of line 0 (got %v %#x)", wb, wbAddr)
	}
}

func TestLineCacheInvalidate(t *testing.T) {
	c := NewLineCache("t", 1024, 2, 64, 1)
	c.Access(128, true)
	c.Invalidate(128)
	if c.Contains(128) {
		t.Fatal("invalidated line still resident")
	}
}

func TestKeyCacheLRUVictim(t *testing.T) {
	c := NewKeyCache("t", 2, 2, 1) // one set of 2 + 1 victim entry
	c.Access(10)
	c.Access(20)
	c.Access(30) // evicts key 10 into the victim cache
	if !c.Probe(10) {
		t.Fatal("evicted key must be found in the victim cache")
	}
	if !c.Access(10) {
		t.Fatal("victim hit must count as a hit")
	}
	c.Invalidate(20)
	if c.Probe(20) {
		t.Fatal("invalidated key still present")
	}
}

func TestKeyCacheMissRate(t *testing.T) {
	c := NewKeyCache("t", 64, 2, 0)
	for i := 0; i < 1000; i++ {
		c.Access(uint64(i % 8)) // working set of 8 in a 64-entry cache
	}
	if r := c.Stats.MissRate(); r > 0.01 {
		t.Fatalf("tiny working set should hit ~always, miss rate %f", r)
	}
}

// TestLineCacheAlwaysFindsAfterFill is a property test: any address is
// resident immediately after being accessed.
func TestLineCacheAlwaysFindsAfterFill(t *testing.T) {
	c := NewLineCache("t", 32*1024, 8, 64, 4)
	f := func(addr uint64) bool {
		addr %= 1 << 40
		c.Access(addr, false)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I: NewLineCache("l1i", 32*1024, 8, 64, 4),
		L1D: NewLineCache("l1d", 32*1024, 8, 64, 4),
		L2:  NewLineCache("l2", 256*1024, 8, 64, 12),
		LLC: NewLineCache("llc", 8*1024*1024, 16, 64, 40),
		Ram: mem.NewDRAM(200),
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := newHierarchy()
	cold := h.AccessData(0x10000, false)
	if cold != 4+12+40+200 {
		t.Fatalf("cold access should traverse all levels: got %d", cold)
	}
	warm := h.AccessData(0x10000, false)
	if warm != 4 {
		t.Fatalf("L1 hit should cost the L1 latency: got %d", warm)
	}
	if h.Ram.BytesRead == 0 {
		t.Fatal("cold miss must charge DRAM traffic")
	}
}

func TestHierarchyStreamPrefetch(t *testing.T) {
	h := newHierarchy()
	misses := 0
	for i := uint64(0); i < 64; i++ { // stream 64 lines
		if lat := h.AccessData(0x100000+i*64, false); lat > h.L1D.Latency {
			misses++
		}
	}
	// The streamer should cover the stream after the first few lines.
	if misses > 4 {
		t.Fatalf("streaming should be covered by the prefetcher; %d demand misses", misses)
	}
	if h.Prefetches == 0 {
		t.Fatal("prefetcher never fired")
	}

	h2 := newHierarchy()
	h2.NoPrefetch = true
	misses = 0
	for i := uint64(0); i < 64; i++ {
		if lat := h2.AccessData(0x100000+i*64, false); lat > h2.L1D.Latency {
			misses++
		}
	}
	if misses != 64 {
		t.Fatalf("without prefetch every line is a compulsory miss, got %d", misses)
	}
}

func TestHierarchyShadowPath(t *testing.T) {
	h := newHierarchy()
	h.Shadow = NewLineCache("shadow", 32*1024, 8, 64, 4)
	const aliasAddr = mem.AliasBase + 0x1000
	cold := h.AccessShadowAt(aliasAddr, false, true, 0)
	warm := h.AccessShadowAt(aliasAddr, false, true, 0)
	if warm >= cold {
		t.Fatalf("walker-cache hit (%d) must beat the cold fill (%d)", warm, cold)
	}
	if warm != 2+4 {
		t.Fatalf("shadow hit should cost port+cache latency, got %d", warm)
	}
	// Capability-table accesses bypass the walker cache and go to L2.
	capCold := h.AccessShadowAt(mem.ShadowBase+64, false, false, 0)
	if capCold < 2+12 {
		t.Fatalf("capability-table access must include the L2 path, got %d", capCold)
	}
	if h.Shadow.Stats.Accesses() != 2 {
		t.Fatalf("capability path must not touch the walker cache (%d accesses)", h.Shadow.Stats.Accesses())
	}
}

// TestKeyCacheResidencyProperty: any key is resident immediately after an
// access, and invalidation always removes it.
func TestKeyCacheResidencyProperty(t *testing.T) {
	c := NewKeyCache("t", 64, 2, 8)
	f := func(key uint64, invalidate bool) bool {
		c.Access(key)
		if !c.Probe(key) {
			return false
		}
		if invalidate {
			c.Invalidate(key)
			if c.Probe(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCacheFlushKeepsStats(t *testing.T) {
	c := NewKeyCache("t", 8, 2, 2)
	for i := uint64(0); i < 20; i++ {
		c.Access(i)
	}
	misses := c.Stats.Misses
	c.Flush()
	if c.Stats.Misses != misses {
		t.Fatal("flush must preserve statistics")
	}
	for i := uint64(0); i < 20; i++ {
		if c.Probe(i) {
			t.Fatalf("key %d survived the flush", i)
		}
	}
}

// flatLineCache is the reference model for LineCache: one flat set-major
// array allocated up front, indexed by plain division and modulo. It
// keeps LineCache's fill, replacement and statistics policy, so the two
// must agree on every return value.
type flatLineCache struct {
	lineSize   uint64
	sets, ways int
	lines      []line
	clock      uint64
	hitPF      bool
	stats      Stats
}

func newFlatLineCache(sizeBytes, ways int, lineSize uint64) *flatLineCache {
	sets := sizeBytes / int(lineSize) / ways
	return &flatLineCache{lineSize: lineSize, sets: sets, ways: ways, lines: make([]line, sets*ways)}
}

func (f *flatLineCache) set(addr uint64) ([]line, uint64) {
	tag := addr / f.lineSize
	s := int(tag % uint64(f.sets))
	return f.lines[s*f.ways : (s+1)*f.ways], tag
}

func (f *flatLineCache) access(addr uint64, write bool) (bool, uint64, bool) {
	ws, tag := f.set(addr)
	f.clock++
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].lru = f.clock
			f.hitPF = ws[w].pf
			ws[w].pf = false
			ws[w].dirty = ws[w].dirty || write
			f.stats.Hits++
			return true, 0, false
		}
	}
	f.hitPF = false
	f.stats.Misses++
	victim := -1
	for w := range ws {
		if !ws[w].valid {
			victim = w
			break
		}
	}
	var wbAddr uint64
	var wb bool
	if victim < 0 {
		victim = 0
		for w := range ws {
			if ws[w].lru < ws[victim].lru {
				victim = w
			}
		}
		f.stats.Evictions++
		if ws[victim].dirty {
			f.stats.Writebacks++
			wb, wbAddr = true, ws[victim].tag*f.lineSize
		}
	}
	ws[victim] = line{tag: tag, valid: true, dirty: write, lru: f.clock}
	return false, wbAddr, wb
}

func (f *flatLineCache) markPrefetched(addr uint64) {
	ws, tag := f.set(addr)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].pf = true
		}
	}
}

func (f *flatLineCache) contains(addr uint64) bool {
	ws, tag := f.set(addr)
	for _, l := range ws {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (f *flatLineCache) invalidate(addr uint64) {
	ws, tag := f.set(addr)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].valid = false
			f.stats.Invals++
		}
	}
}

// lineCacheGeometries are the simulator's default L1, L2, LLC and shadow
// caches plus one set count (100) that is neither a power of two nor a
// whole number of chunks.
var lineCacheGeometries = []struct {
	name      string
	sizeBytes int
	ways      int
}{
	{"L1", 32 << 10, 8},
	{"L2", 256 << 10, 8},
	{"LLC", 8 << 20, 16},
	{"shadow", 32 << 10, 8},
	{"sets100", 100 * 4 * 64, 4},
}

// TestLineCacheMatchesFlatReference drives LineCache and the flat
// reference through the same random Access/MarkPrefetched/Contains/
// Invalidate sequence and compares every result, HitPrefetched and Stats
// after each operation. Addresses come from a few dozen sets (the first
// and last among them) with more tags than ways, so fills, hits,
// evictions and writebacks all occur, mixed with probes of addresses
// anywhere in memory, which mostly land in untouched chunks.
func TestLineCacheMatchesFlatReference(t *testing.T) {
	const lineSize = 64
	for gi, g := range lineCacheGeometries {
		t.Run(g.name, func(t *testing.T) {
			c := NewLineCache(g.name, g.sizeBytes, g.ways, lineSize, 1)
			ref := newFlatLineCache(g.sizeBytes, g.ways, lineSize)
			rng := rand.New(rand.NewSource(int64(gi + 1)))
			hot := []uint64{0, uint64(ref.sets - 1)}
			for len(hot) < 40 {
				hot = append(hot, uint64(rng.Intn(ref.sets)))
			}
			for i := 0; i < 30000; i++ {
				var addr uint64
				if rng.Intn(8) == 0 {
					addr = rng.Uint64() >> 16
				} else {
					tag := uint64(rng.Intn(3 * g.ways))
					lineAddr := tag*uint64(ref.sets) + hot[rng.Intn(len(hot))]
					addr = lineAddr*lineSize + uint64(rng.Intn(lineSize))
				}
				switch op := rng.Intn(10); {
				case op < 6:
					write := rng.Intn(3) == 0
					hit, wbAddr, wb := c.Access(addr, write)
					rhit, rwbAddr, rwb := ref.access(addr, write)
					if hit != rhit || wbAddr != rwbAddr || wb != rwb {
						t.Fatalf("op %d Access(%#x, %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
							i, addr, write, hit, wbAddr, wb, rhit, rwbAddr, rwb)
					}
				case op < 7:
					c.MarkPrefetched(addr)
					ref.markPrefetched(addr)
				case op < 9:
					if got, want := c.Contains(addr), ref.contains(addr); got != want {
						t.Fatalf("op %d Contains(%#x) = %v, reference %v", i, addr, got, want)
					}
				default:
					c.Invalidate(addr)
					ref.invalidate(addr)
				}
				if c.HitPrefetched() != ref.hitPF || c.Stats != ref.stats {
					t.Fatalf("op %d: HitPrefetched %v stats %+v, reference %v %+v",
						i, c.HitPrefetched(), c.Stats, ref.hitPF, ref.stats)
				}
			}
			if ref.stats.Evictions == 0 || ref.stats.Writebacks == 0 || ref.stats.Invals == 0 || ref.stats.Hits == 0 {
				t.Fatalf("sequence too weak: %+v", ref.stats)
			}
		})
	}
}

// TestLineCacheProbesAllocateNothing: probing sets no fill has touched
// reads them as empty without materializing their chunks.
func TestLineCacheProbesAllocateNothing(t *testing.T) {
	for _, g := range lineCacheGeometries {
		c := NewLineCache(g.name, g.sizeBytes, g.ways, 64, 1)
		var addr uint64
		allocs := testing.AllocsPerRun(1000, func() {
			addr += 64*7 + 1
			if c.Contains(addr) {
				t.Fatal("empty cache contains a line")
			}
			c.MarkPrefetched(addr)
			c.Invalidate(addr)
		})
		if allocs != 0 {
			t.Errorf("%s: probes of untouched sets allocate %.1f objects each, want 0", g.name, allocs)
		}
		for k, ch := range c.chunks {
			if ch != nil {
				t.Fatalf("%s: probe materialized chunk %d", g.name, k)
			}
		}
		if c.Stats != (Stats{}) {
			t.Errorf("%s: probes of an empty cache changed stats: %+v", g.name, c.Stats)
		}
	}
}
