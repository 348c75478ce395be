package experiments

import (
	"context"
	"fmt"
	"strings"

	"chex86/internal/ptrflow"
)

// CoverageRow is one benchmark's tracker-coverage measurement: the static
// pointer-flow analysis cross-checked against the dynamic tracker's tag
// stream (DESIGN.md §9).
type CoverageRow struct {
	Bench string `json:"bench"`

	MemSites     int `json:"mem_sites"`
	PointerSites int `json:"pointer_sites"`
	UnknownSites int `json:"unknown_sites"`
	AssumedSites int `json:"assumed_sites"`

	DerefExecs  uint64 `json:"deref_execs"`
	TaggedExecs uint64 `json:"tagged_execs"`

	// Coverage is the fraction of dynamic dereferences at statically
	// proven pointer sites that the tracker tagged (1.0 = the tracker
	// never missed a pointer the analysis can prove).
	Coverage float64 `json:"coverage"`

	FalseNegatives        int `json:"false_negatives"`
	TriagedFalseNegatives int `json:"triaged_false_negatives"`
	OverTagged            int `json:"over_tagged"`
}

// RunCoverage cross-checks every selected benchmark under the
// prediction-driven variant and returns the per-benchmark tracker
// coverage. Unlike the figure harnesses, the replay includes the setup
// phase: the cross-check wants the whole tag stream, not the
// steady-state window.
func RunCoverage(o Options) ([]CoverageRow, error) {
	var out []CoverageRow
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		if o.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.Timeout)
			defer cancel()
		}
		maxInsts := o.MaxInsts
		if maxInsts > 0 {
			maxInsts += p.SetupInsts()
		}
		rep, err := ptrflow.Crosscheck(ctx, prog, ptrflow.CheckOptions{
			Harts:     p.Harts(),
			MaxInsts:  maxInsts,
			MaxCycles: o.MaxCycles,
		})
		if err != nil {
			return nil, fmt.Errorf("coverage %s: %w", p.Name, err)
		}
		out = append(out, CoverageRow{
			Bench:                 p.Name,
			MemSites:              rep.MemSites,
			PointerSites:          rep.PointerSites,
			UnknownSites:          rep.UnknownSites,
			AssumedSites:          rep.AssumedSites,
			DerefExecs:            rep.DerefExecs,
			TaggedExecs:           rep.TaggedExecs,
			Coverage:              rep.Coverage,
			FalseNegatives:        rep.FalseNegatives,
			TriagedFalseNegatives: rep.TriagedFalseNegatives,
			OverTagged:            rep.OverTaggedSites,
		})
	}
	return out, nil
}

// FormatCoverage renders the coverage table.
func FormatCoverage(rows []CoverageRow) string {
	var b strings.Builder
	b.WriteString("Tracker coverage (static pointer-flow cross-check, prediction-driven variant)\n")
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %12s %12s %9s %6s %8s %6s\n",
		"benchmark", "sites", "ptr", "unknown", "derefs", "tagged", "coverage", "FN", "triaged", "over")
	var execs, tagged uint64
	fns := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %9d %9d %12d %12d %9.4f %6d %8d %6d\n",
			r.Bench, r.MemSites, r.PointerSites, r.UnknownSites,
			r.DerefExecs, r.TaggedExecs, r.Coverage,
			r.FalseNegatives, r.TriagedFalseNegatives, r.OverTagged)
		execs += r.DerefExecs
		tagged += r.TaggedExecs
		fns += r.FalseNegatives
	}
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %12d %12d %9s %6d\n",
		"total", "", "", "", execs, tagged, "", fns)
	return b.String()
}
