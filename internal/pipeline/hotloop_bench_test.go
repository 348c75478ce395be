package pipeline

import (
	"runtime"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/workload"
)

// steadyLoopProgram builds a non-terminating, allocation-quiet guest: one
// heap buffer allocated up front, then an infinite loop of bounded loads,
// stores, and ALU work over it. After warmup nothing in the simulator
// should allocate while running it — the steady-state contract the
// AllocsPerRun tests below assert.
func steadyLoopProgram() *asm.Program {
	b := asm.NewBuilder()
	const words = 64
	b.MovRI(isa.RDI, words*8)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.R12, isa.RAX)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.StoreIdx(isa.R12, isa.RCX, 8, 0, isa.RCX)
	b.LoadIdx(isa.RBX, isa.R12, isa.RCX, 8, 0)
	b.AddRR(isa.RBX, isa.RCX)
	b.AddRI(isa.RCX, 1)
	b.Alu(isa.AND, isa.RegOp(isa.RCX), isa.ImmOp(words-1))
	b.Jmp("loop")
	return b.MustBuild()
}

func steadySim(tb testing.TB, v decode.Variant) *Sim {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Variant = v
	sim, err := NewSim(steadyLoopProgram(), cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	// Warm up past allocator interception, first-touch page materialization,
	// and structure growth so only the steady state is measured.
	if _, err := sim.Step(5000); err != nil {
		tb.Fatal(err)
	}
	return sim
}

// TestNewSimFootprint bounds the bytes one single-hart NewSim allocates
// under the default configuration. Construction must cost in proportion
// to the state a program touches, not the configured machine: cache sets
// and bandwidth windows materialize on first use, so an 8 MiB LLC and
// nine per-core bandwidth windows may not be zeroed up front.
func TestNewSimFootprint(t *testing.T) {
	const limit = 512 << 10
	prog := steadyLoopProgram()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewSim(prog, DefaultConfig(), 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewSim allocated %d bytes", n)
	if n > limit {
		t.Fatalf("NewSim allocated %d bytes, want <= %d", n, limit)
	}
}

// TestFirstRunFootprint bounds what a short cold run allocates in
// total: NewSim plus the first 2,000 committed instructions of a small
// loop. The front end must grow with the code it executes — μop-cache
// slots and BTB entries materialize by chunk on first insert, and the
// bimodal table needs no init pass — so a run this short may not pay for
// the full Table III front end.
func TestFirstRunFootprint(t *testing.T) {
	const limit = 256 << 10
	for _, v := range []decode.Variant{decode.VariantInsecure, decode.VariantMicrocodePrediction} {
		prog := steadyLoopProgram()
		cfg := DefaultConfig()
		cfg.Variant = v
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim, err := NewSim(prog, cfg, 1)
		if err == nil {
			_, err = sim.Step(2000)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		n := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: NewSim + 2000 steps allocated %d bytes", v, n)
		if n > limit {
			t.Errorf("%v: NewSim + 2000 steps allocated %d bytes, want <= %d", v, n, limit)
		}
	}
}

// TestProcessRecSteadyStateAllocs asserts the zero-allocation contract
// for every variant: one full Sim.Step — emulator step, record pooling,
// decode (μop cache hit), instrumentation, and timing — must not allocate
// in steady state. The untracked variants (insecure baseline, ASan) must
// allocate nothing; the tracker's own structures may still grow
// occasionally (map rehashing amortizes), so the tracked variants are
// held near zero rather than at zero.
func TestProcessRecSteadyStateAllocs(t *testing.T) {
	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		t.Run(v.ShortName(), func(t *testing.T) {
			sim := steadySim(t, v)
			n := testing.AllocsPerRun(2000, func() {
				if _, err := sim.Step(1); err != nil {
					t.Fatal(err)
				}
			})
			limit := 0.0
			if v.UsesTracker() {
				limit = 0.05
			}
			if n > limit {
				t.Fatalf("%v: steady-state Sim.Step allocates %.3f objects/instruction, want <= %.2f", v, n, limit)
			}
		})
	}
}

// TestProcessRecTrackedSteadyStateAllocs bounds the tracked
// (MicrocodePrediction) variant. Its hot path shares the same pooled
// machinery; the tracker's own structures may still grow occasionally
// (map rehashing amortizes), so the bound is near-zero rather than zero.
func TestProcessRecTrackedSteadyStateAllocs(t *testing.T) {
	sim := steadySim(t, decode.VariantMicrocodePrediction)
	n := testing.AllocsPerRun(2000, func() {
		if _, err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0.05 {
		t.Fatalf("tracked steady-state Sim.Step allocates %.3f objects/instruction, want ~0", n)
	}
}

// BenchmarkHotLoop measures host throughput of the committed-instruction
// hot path per protection variant on a catalog workload, with allocation
// accounting. The committed baseline for these numbers lives in
// bench_baseline.json; cmd/chexperf gates CI on it.
func BenchmarkHotLoop(b *testing.B) {
	p := workload.ByName("mcf")
	if p == nil {
		b.Fatal("mcf workload missing from catalog")
	}
	prog, err := p.Build(0.25)
	if err != nil {
		b.Fatal(err)
	}
	const insts = 100_000
	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Variant = v
				cfg.MaxInsts = insts
				sim, err := NewSim(prog, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MacroInsts)*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kinst/s")
			}
		})
	}
}

// BenchmarkHotLoopNoCache is the cache-off control for BenchmarkHotLoop's
// default variant: the difference between the two is the μop translation
// cache's contribution.
func BenchmarkHotLoopNoCache(b *testing.B) {
	p := workload.ByName("mcf")
	if p == nil {
		b.Fatal("mcf workload missing from catalog")
	}
	prog, err := p.Build(0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.MaxInsts = 100_000
		cfg.NoUopCache = true
		sim, err := NewSim(prog, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
