package experiments

import (
	"context"
	"fmt"
	"strings"

	"chex86/internal/elide"
	"chex86/internal/pipeline"
)

// HoistRow is one benchmark's hoisted-guard measurement: the verified
// guard set the checker admitted (DESIGN.md §16) and the dynamic
// attribution of suppressed capability checks to those guards. The
// executed check set is identical with guards on or off — the
// differential gate (TestGuardDiff) holds the check counts equal and
// violation reports byte-identical — so the row reports attribution, not
// timing.
type HoistRow struct {
	Bench string `json:"bench"`

	Verified bool `json:"verified"` // the guard set passed the checker

	Guards  int `json:"guards"`  // verified hoisted guards (static)
	Covered int `json:"covered"` // covered sites across those guards (static)

	// Dynamic counts from the guards-on run.
	ChecksRun    uint64 `json:"checks_run"`
	ChecksElided uint64 `json:"checks_elided"`
	GuardUops    uint64 `json:"guard_uops"`
	Subsumed     uint64 `json:"subsumed"`
}

// HoistRate is the fraction of would-be capability checks subsumed into
// hoisted guards.
func (r *HoistRow) HoistRate() float64 {
	total := r.ChecksRun + r.ChecksElided
	if total == 0 {
		return 0
	}
	return float64(r.Subsumed) / float64(total)
}

// RunHoist measures dominator-based check subsumption across the
// selected benchmarks: analyze, verify the guard claims fail-closed,
// replay with the verified guard map installed, and report how many
// suppressed checks fold into hoisted block guards.
func RunHoist(o Options) ([]HoistRow, error) {
	ctx := context.Background()
	var out []HoistRow
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		rep, err := elide.ForProgram(prog, elide.Options{Harts: p.Harts(), ContextK: o.ContextK})
		if err != nil {
			return nil, fmt.Errorf("hoist %s: %w", p.Name, err)
		}
		row := HoistRow{Bench: p.Name, Verified: rep.Guards.Verified}
		for i := range rep.Guards.Decisions {
			if rep.Guards.Decisions[i].Status == "hoist" {
				row.Guards++
			}
		}
		row.Covered = rep.Guards.Stats.Covered

		res, sim, err := o.runProfile(ctx, p, prog, pipeline.DefaultConfig(), rep, true)
		if err != nil {
			return nil, fmt.Errorf("hoist %s (run): %w", p.Name, err)
		}
		gs := sim.GuardStats()
		row.ChecksRun = res.ChecksRun
		row.ChecksElided = res.ChecksElided
		row.GuardUops = gs.GuardUops
		row.Subsumed = gs.SubsumedChecks
		out = append(out, row)
	}
	return out, nil
}

// FormatHoist renders the hoisting table. The trailing total line is
// the CI smoke contract: a nonzero subsumed count proves the
// dominator/guard chain end to end.
func FormatHoist(rows []HoistRow) string {
	var b strings.Builder
	b.WriteString("Dominator-based check subsumption (hoisted block guards, verified claims only)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %12s %12s %12s %12s %8s\n",
		"benchmark", "ok", "guards", "covered", "checks", "suppressed", "guarduops", "subsumed", "rate")
	var checks, suppressed, subsumed uint64
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "%-14s %8v %8d %8d %12d %12d %12d %12d %7.2f%%\n",
			r.Bench, r.Verified, r.Guards, r.Covered,
			r.ChecksRun, r.ChecksElided, r.GuardUops, r.Subsumed, 100*r.HoistRate())
		checks += r.ChecksRun
		suppressed += r.ChecksElided
		subsumed += r.Subsumed
	}
	rate := 0.0
	if checks+suppressed > 0 {
		rate = float64(subsumed) / float64(checks+suppressed)
	}
	fmt.Fprintf(&b, "total: checks=%d elided=%d subsumed=%d (hoist rate %.2f%%)\n",
		checks, suppressed, subsumed, 100*rate)
	return b.String()
}
