package pipeline

import (
	"math/rand"
	"slices"
	"testing"

	"chex86/internal/isa"
)

// flatUopCache is the flat μop cache the chunked production cache is
// checked against: the same direct-mapped organization with all
// uopCacheSlots slots allocated on the first insert.
type flatUopCache struct {
	slots []uopEntry

	hits          uint64
	misses        uint64
	invalidations uint64
}

func (uc *flatUopCache) lookup(addr, gen uint64) *uopEntry {
	if uc.slots == nil {
		uc.misses++
		return nil
	}
	e := &uc.slots[uopSlot(addr)]
	if e.valid && e.addr == addr {
		if e.gen == gen {
			uc.hits++
			return e
		}
		uc.invalidations++
		e.valid = false
	}
	uc.misses++
	return nil
}

func (uc *flatUopCache) insert(addr, gen uint64, uops []isa.Uop, nativeUops uint64, rerouted bool) {
	if uc.slots == nil {
		uc.slots = make([]uopEntry, uopCacheSlots)
	}
	e := &uc.slots[uopSlot(addr)]
	cp := e.uops[:0]
	if cap(cp) < len(uops) {
		cp = make([]isa.Uop, 0, len(uops))
	}
	cp = append(cp, uops...)
	*e = uopEntry{addr: addr, valid: true, uops: cp, nativeUops: nativeUops, rerouted: rerouted, gen: gen}
}

func (uc *flatUopCache) entries() (n int) {
	for i := range uc.slots {
		if uc.slots[i].valid {
			n++
		}
	}
	return n
}

// sameEntry reports whether two lookup results agree: both misses, or
// hits carrying the same tag, generation, statistics and expansion.
func sameEntry(a, b *uopEntry) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.addr == b.addr && a.valid == b.valid && a.gen == b.gen &&
		a.nativeUops == b.nativeUops && a.rerouted == b.rerouted && slices.Equal(a.uops, b.uops)
}

// TestUopCacheMatchesFlatReference drives random lookup/insert streams,
// with microcode generation bumps, through the chunked cache and the
// flat reference side by side. Every lookup must return the same hit or
// miss with the same expansion, and the hit, miss, invalidation and
// resident-entry counts must agree after every phase. Streams cover a
// dense text region, sparse addresses spread over the address space
// (most in chunks nothing else touches), and addresses that conflict in
// one slot.
func TestUopCacheMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var addrs []uint64
		if seed%2 == 1 {
			for k := 0; k < 600; k++ {
				addrs = append(addrs, 0x400000+4*uint64(k))
			}
		}
		for k := 0; k < 200; k++ {
			addrs = append(addrs, uint64(rng.Int63n(1<<40))&^3)
		}
		for k := uint64(1); k <= 6; k++ {
			addrs = append(addrs, 0x400010+k*uopCacheSlots*4)
		}
		expansion := func(addr, gen uint64) []isa.Uop {
			n := int(addr>>2+gen)%5 + 1
			out := make([]isa.Uop, n)
			for j := range out {
				out[j] = isa.Uop{Type: isa.UAlu, Imm: int64(addr ^ gen<<32 ^ uint64(j)), MacroIdx: uint8(j)}
			}
			return out
		}

		var got uopCache
		var want flatUopCache
		gen := uint64(0)
		for step := 0; step < 40_000; step++ {
			if rng.Intn(2000) == 0 {
				gen++ // an MSRAM install or removal
			}
			addr := addrs[rng.Intn(len(addrs))]
			if rng.Intn(8) == 0 {
				// A standalone insert (no probe first): overwrites the
				// slot whatever it holds.
				u := expansion(addr, gen)
				rer := rng.Intn(3) == 0
				got.insert(addr, gen, u, uint64(len(u)), rer)
				want.insert(addr, gen, u, uint64(len(u)), rer)
				continue
			}
			g, w := got.lookup(addr, gen), want.lookup(addr, gen)
			if !sameEntry(g, w) {
				t.Fatalf("seed %d step %d: lookup(%#x, gen %d) = %+v, reference %+v", seed, step, addr, gen, g, w)
			}
			if g == nil {
				u := expansion(addr, gen)
				got.insert(addr, gen, u, uint64(len(u)), false)
				want.insert(addr, gen, u, uint64(len(u)), false)
				u[0].Imm = -1 // the caller's scratch is reused
			}
			if step%5000 == 0 && got.entries() != want.entries() {
				t.Fatalf("seed %d step %d: %d entries, reference %d", seed, step, got.entries(), want.entries())
			}
		}
		if got.hits != want.hits || got.misses != want.misses || got.invalidations != want.invalidations {
			t.Fatalf("seed %d: hits/misses/invalidations %d/%d/%d, reference %d/%d/%d", seed,
				got.hits, got.misses, got.invalidations, want.hits, want.misses, want.invalidations)
		}
		if got.entries() != want.entries() {
			t.Fatalf("seed %d: %d entries, reference %d", seed, got.entries(), want.entries())
		}
		if got.hits == 0 || got.invalidations == 0 {
			t.Fatalf("seed %d: vacuous stream (hits %d, invalidations %d)", seed, got.hits, got.invalidations)
		}
	}
}

// TestUopCacheLookupAllocatesNothing pins the pay-as-you-touch contract:
// lookups in never-inserted ranges miss without materializing a chunk,
// and one insert materializes exactly one.
func TestUopCacheLookupAllocatesNothing(t *testing.T) {
	var uc uopCache
	for addr := uint64(0x400000); addr < 0x400000+2*uopCacheSlots*4; addr += 4 {
		if uc.lookup(addr, 0) != nil {
			t.Fatalf("cold cache hit at %#x", addr)
		}
	}
	count := func() (n int) {
		for _, ch := range uc.chunks {
			if ch != nil {
				n++
			}
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("lookups materialized %d chunks", n)
	}
	uc.insert(0x400100, 0, []isa.Uop{{Type: isa.UNop}}, 1, false)
	if n := count(); n != 1 {
		t.Fatalf("one insert materialized %d chunks, want 1", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { uc.lookup(0x7fff0000, 0) }); allocs != 0 {
		t.Fatalf("lookup allocated %.0f times", allocs)
	}
}
