package security

import (
	"fmt"
	"strings"

	"chex86/internal/decode"
	"chex86/internal/pipeline"
)

// This file is the fail-closed differential gate for proof-carrying
// check elision (DESIGN.md §11): every exploit and benign probe of the
// full security evaluation replays twice — elision off and elision on,
// with the independently verified elision map installed — and the two
// violation reports must be byte-identical. Elision may only ever
// suppress checks the proofs show can never fire; a single report that
// appears, disappears, or changes class is a soundness bug, and the gate
// (run in CI) fails the build. Reports deliberately exclude timing:
// suppressing micro-ops legitimately changes cycle counts.

// ElideDiffCase is one exploit's paired outcome.
type ElideDiffCase struct {
	Name    string `json:"name"`
	Suite   string `json:"suite"`
	Off     string `json:"off"`    // violation report without elision
	On      string `json:"on"`     // violation report with verified elision
	Elided  int    `json:"elided"` // proofs verified for this program
	Matches bool   `json:"matches"`
}

// ElideDiffReport is the whole differential run.
type ElideDiffReport struct {
	Cases      []ElideDiffCase `json:"cases"`
	Mismatches int             `json:"mismatches"`
	Elided     int             `json:"elided"` // total verified proofs across programs
}

// Identical reports whether every case matched byte-for-byte.
func (r *ElideDiffReport) Identical() bool { return r.Mismatches == 0 }

// outcomeReport renders an outcome's security-relevant content: the
// violation (class, PID, address, RIP, message) or its absence, and any
// simulation error. No cycle or timing fields.
func outcomeReport(o *Outcome) string {
	switch {
	case o.Err != nil:
		return "error: " + o.Err.Error()
	case o.Violation != nil:
		return o.Violation.Error()
	default:
		return "none"
	}
}

// RunElideDiff replays every security case (all three exploit suites and
// the false-positive probes) with elision off and on, comparing reports.
func RunElideDiff() *ElideDiffReport {
	rep := &ElideDiffReport{}
	for _, e := range All() {
		off := Run(e, decode.VariantMicrocodePrediction)
		on, elided := run(e, pipeline.DefaultConfig(), true)
		c := ElideDiffCase{
			Name:   e.Name,
			Suite:  e.Suite,
			Off:    outcomeReport(off),
			On:     outcomeReport(on),
			Elided: elided,
		}
		c.Matches = c.Off == c.On
		if !c.Matches {
			rep.Mismatches++
		}
		rep.Elided += elided
		rep.Cases = append(rep.Cases, c)
	}
	return rep
}

// FormatElideDiff renders the differential table; the verdict line is
// the CI contract.
func FormatElideDiff(r *ElideDiffReport) string {
	var b strings.Builder
	b.WriteString("Elision differential gate: violation reports, elision off vs on\n")
	for _, c := range r.Cases {
		status := "ok"
		if !c.Matches {
			status = "MISMATCH"
		}
		fmt.Fprintf(&b, "[%-8s] %-16s %-34s proofs=%-3d %s\n",
			status, c.Suite, c.Name, c.Elided, c.Off)
		if !c.Matches {
			fmt.Fprintf(&b, "%47s on:  %s\n", "", c.On)
		}
	}
	verdict := "IDENTICAL"
	if !r.Identical() {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "elide-diff: %s (%d cases, %d mismatches, %d proofs verified)\n",
		verdict, len(r.Cases), r.Mismatches, r.Elided)
	return b.String()
}
