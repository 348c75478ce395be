package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"chex86/internal/elide"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// TestGuardDiff is the guard-hoisting differential gate (DESIGN.md
// §16/§17): across every catalog workload at smoke conditions, turning
// HoistGuards on may change timing — each committed anchor now
// materializes one timed UGuardCheck μop — but nothing functional. The
// pinned relation: violation reports byte-identical, the functional
// stream (macro-ops, native μops, checks run, checks elided, gated
// memory μops) identical counter for counter, and the injected-μop
// count higher by exactly GuardUops — the guard μops are the only
// stream difference. The checker admits a covered site only when it is
// already in the verified elision map, so the executed check set cannot
// move. The smoke half of the contract asserts the machinery is live: a
// nonzero subsumed count on most workloads, never a silent all-zero
// pass.
func TestGuardDiff(t *testing.T) {
	o := Options{Scale: 0.1, MaxInsts: 50_000}
	ctx := context.Background()

	hoisting := 0
	all := workload.Catalog()
	for _, p := range all {
		prog, err := p.Build(o.Scale)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		rep, err := elide.ForProgram(prog, elide.Options{Harts: p.Harts()})
		if err != nil {
			t.Fatalf("%s: elide: %v", p.Name, err)
		}
		if !rep.Guards.Verified {
			t.Fatalf("%s: guard set rejected: %s", p.Name, rep.Guards.Reason)
		}

		// Both runs install the verified elision map; only the guard map
		// differs.
		off, _, err := o.runProfile(ctx, p, prog, pipeline.DefaultConfig(), rep, false)
		if err != nil {
			t.Fatalf("%s: guards-off run: %v", p.Name, err)
		}
		onRes, sim, err := o.runProfile(ctx, p, prog, pipeline.DefaultConfig(), rep, true)
		if err != nil {
			t.Fatalf("%s: guards-on run: %v", p.Name, err)
		}
		gs := sim.GuardStats()

		offViol, _ := json.Marshal(off.Violations)
		onViol, _ := json.Marshal(onRes.Violations)
		if string(offViol) != string(onViol) {
			t.Errorf("%s: violation report diverged with guards on\noff: %s\non:  %s", p.Name, offViol, onViol)
		}
		if off.MacroInsts != onRes.MacroInsts || off.NativeUops != onRes.NativeUops {
			t.Errorf("%s: macro/native stream moved with guards on: off %d/%d, on %d/%d",
				p.Name, off.MacroInsts, off.NativeUops, onRes.MacroInsts, onRes.NativeUops)
		}
		if off.ChecksRun != onRes.ChecksRun || off.ChecksElided != onRes.ChecksElided ||
			off.GatedMem != onRes.GatedMem {
			t.Errorf("%s: check set moved with guards on: off run=%d elided=%d gated=%d, on run=%d elided=%d gated=%d",
				p.Name, off.ChecksRun, off.ChecksElided, off.GatedMem,
				onRes.ChecksRun, onRes.ChecksElided, onRes.GatedMem)
		}
		if onRes.InjectedUops != off.InjectedUops+gs.GuardUops {
			t.Errorf("%s: guard μops are not the only injected-stream difference: off %d + guards %d != on %d",
				p.Name, off.InjectedUops, gs.GuardUops, onRes.InjectedUops)
		}

		total := onRes.ChecksRun + onRes.ChecksElided
		if gs.SubsumedChecks > onRes.ChecksElided {
			t.Errorf("%s: subsumed %d exceeds elided %d — attribution overcounts",
				p.Name, gs.SubsumedChecks, onRes.ChecksElided)
		}
		if total > 0 && gs.SubsumedChecks > 0 {
			hoisting++
		}
	}

	// Smoke: the hoist rate must be nonzero on at least 10 of the 14
	// catalog workloads (matching the elision coverage PR 4 established).
	if want := 10; hoisting < want {
		t.Fatalf("only %d/%d workloads subsumed any checks into guards, want >= %d",
			hoisting, len(all), want)
	}
}
