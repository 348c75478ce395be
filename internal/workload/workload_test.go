package workload_test

import (
	"testing"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/emu"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

const emuAllocEnter = emu.EvAllocEnter

func emuMachine(prog *asm.Program, p *workload.Profile) *emu.Machine {
	return emu.New(prog, emu.Options{Harts: p.Harts(), MaxInsts: 3_000_000})
}

func TestCatalogBuilds(t *testing.T) {
	for _, p := range workload.Catalog() {
		if _, err := p.Build(0.2); err != nil {
			t.Errorf("%s: build failed: %v", p.Name, err)
		}
	}
}

// TestWorkloadsRunCleanWithChecker executes a scaled-down copy of every
// workload under the default CHEx86 variant with the hardware checker
// enabled: no violations (the workloads are well-behaved) and a high
// checker agreement rate (the Table I rules track the pointers).
func TestWorkloadsRunCleanWithChecker(t *testing.T) {
	for _, p := range workload.Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := p.MustBuild(0.15)
			cfg := pipeline.DefaultConfig()
			cfg.Variant = decode.VariantMicrocodePrediction
			cfg.EnableChecker = true
			cfg.MaxInsts = 120_000
			sim := pipeline.New(prog, cfg, p.Harts())
			res, err := sim.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("unexpected violation: %v (of %d)", res.Violations[0], len(res.Violations))
			}
			if res.MacroInsts == 0 {
				t.Fatal("no instructions executed")
			}
			if res.Checker.Validations > 0 && res.Checker.MismatchRate() > 0.01 {
				t.Errorf("checker mismatch rate %.4f too high (%d/%d); first: %v",
					res.Checker.MismatchRate(), res.Checker.Mismatches,
					res.Checker.Validations, firstMismatch(res))
			}
		})
	}
}

func firstMismatch(res *pipeline.Result) any {
	if len(res.Mismatches) > 0 {
		return res.Mismatches[0]
	}
	return "none"
}

// TestBuildDeterminism: the generator must be reproducible — identical
// programs for identical profiles.
func TestBuildDeterminism(t *testing.T) {
	p := workload.ByName("gcc")
	a := p.MustBuild(0.2)
	b := p.MustBuild(0.2)
	if len(a.Insts) != len(b.Insts) {
		t.Fatalf("instruction counts differ: %d vs %d", len(a.Insts), len(b.Insts))
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	if len(a.Data) != len(b.Data) {
		t.Fatal("data initializers differ")
	}
}

// TestScaleDoesNotMutateCatalog guards the copy-on-build semantics.
func TestScaleDoesNotMutateCatalog(t *testing.T) {
	p := workload.ByName("perlbench")
	rounds := p.Rounds
	p.MustBuild(0.1)
	if p.Rounds != rounds {
		t.Fatal("Build must not mutate the shared catalog profile")
	}
}

// TestSetupInstsEstimate: the warmup estimate must cover the allocation
// phase (first EvAllocExit of the main rounds comes after all initial
// allocations) without swallowing the whole run.
func TestSetupInstsEstimate(t *testing.T) {
	for _, p := range workload.Catalog() {
		est := p.SetupInsts()
		if est == 0 {
			t.Errorf("%s: zero setup estimate", p.Name)
		}
		prog := p.MustBuild(0.15)
		// Count the actual instructions up to the last initial allocation.
		m := emuMachine(prog, p)
		setupEnd := uint64(0)
		allocs := 0
		for {
			rec, err := m.Step()
			if err != nil || rec == nil {
				break
			}
			if rec.Event == emuAllocEnter {
				allocs++
				if allocs == p.MaxLive {
					setupEnd = m.TotalInsts()
					break
				}
			}
		}
		if setupEnd == 0 {
			t.Errorf("%s: never finished the allocation phase", p.Name)
			continue
		}
		if est < setupEnd {
			t.Errorf("%s: setup estimate %d below the actual phase end %d", p.Name, est, setupEnd)
		}
		if est > setupEnd*3 {
			t.Errorf("%s: setup estimate %d wildly above the actual %d", p.Name, est, setupEnd)
		}
	}
}

// TestProfileShapeInvariants pins catalog-wide invariants the figures
// depend on.
func TestProfileShapeInvariants(t *testing.T) {
	for _, p := range workload.Catalog() {
		if p.TotalAllocs() < p.MaxLive {
			t.Errorf("%s: total allocations below the live set", p.Name)
		}
		if p.Chase && p.AllocSize < 256 {
			t.Errorf("%s: chase buffers must hold at least 4 nodes", p.Name)
		}
		if p.AllocSize%8 != 0 {
			t.Errorf("%s: allocation sizes must be 8-byte multiples", p.Name)
		}
		if p.VisitsPerRound() == 0 {
			t.Errorf("%s: no visit schedule", p.Name)
		}
	}
	names := workload.Names()
	if names[0] != "perlbench" || names[len(names)-1] != "canneal" {
		t.Error("catalog must preserve the paper's Figure 6 order")
	}
}
