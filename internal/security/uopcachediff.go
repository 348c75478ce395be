package security

import (
	"fmt"
	"strings"

	"chex86/internal/decode"
	"chex86/internal/pipeline"
)

// This file is the security half of the μop-translation-cache
// differential gate (DESIGN.md §12): every exploit and benign probe of
// the full security evaluation replays twice — translation cache enabled
// (the default) and disabled — and the two violation reports must be
// byte-identical. The cache memoizes only the static decode stage, so a
// report that appears, disappears, or changes class under it means
// per-dynamic state leaked into a cached translation; the gate fails the
// build on the first such case.

// UopCacheDiffCase is one exploit's paired outcome.
type UopCacheDiffCase struct {
	Name    string `json:"name"`
	Suite   string `json:"suite"`
	On      string `json:"on"`  // violation report with the μop cache (default)
	Off     string `json:"off"` // violation report with NoUopCache set
	Matches bool   `json:"matches"`
}

// UopCacheDiffReport is the whole differential run.
type UopCacheDiffReport struct {
	Cases      []UopCacheDiffCase `json:"cases"`
	Mismatches int                `json:"mismatches"`
}

// Identical reports whether every case matched byte-for-byte.
func (r *UopCacheDiffReport) Identical() bool { return r.Mismatches == 0 }

// RunUopCacheDiff replays every security case (all three exploit suites
// and the false-positive probes) with the μop translation cache on and
// off, comparing violation reports.
func RunUopCacheDiff() *UopCacheDiffReport {
	rep := &UopCacheDiffReport{}
	noCache := pipeline.DefaultConfig()
	noCache.NoUopCache = true
	for _, e := range All() {
		on := Run(e, decode.VariantMicrocodePrediction)
		off, _ := run(e, noCache, false)
		c := UopCacheDiffCase{
			Name:  e.Name,
			Suite: e.Suite,
			On:    outcomeReport(on),
			Off:   outcomeReport(off),
		}
		c.Matches = c.On == c.Off
		if !c.Matches {
			rep.Mismatches++
		}
		rep.Cases = append(rep.Cases, c)
	}
	return rep
}

// FormatUopCacheDiff renders the differential table; the verdict line is
// the CI contract.
func FormatUopCacheDiff(r *UopCacheDiffReport) string {
	var b strings.Builder
	b.WriteString("μop-cache differential gate: violation reports, cache on vs off\n")
	for _, c := range r.Cases {
		status := "ok"
		if !c.Matches {
			status = "MISMATCH"
		}
		fmt.Fprintf(&b, "[%-8s] %-16s %-34s %s\n", status, c.Suite, c.Name, c.On)
		if !c.Matches {
			fmt.Fprintf(&b, "%47s off: %s\n", "", c.Off)
		}
	}
	verdict := "IDENTICAL"
	if !r.Identical() {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "uopcache-diff: %s (%d cases, %d mismatches)\n",
		verdict, len(r.Cases), r.Mismatches)
	return b.String()
}
