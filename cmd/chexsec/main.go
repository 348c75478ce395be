// Command chexsec runs the security evaluation of Section VII-A: the
// RIPE-style sweep, the ASan-test-style suite, the How2Heap-style exploit
// collection, and the Section VII-B false-positive probes.
//
// Usage:
//
//	chexsec                       # all suites, prediction-driven variant
//	chexsec -suite How2Heap -v    # one suite, per-exploit output
//	chexsec -variant baseline     # demonstrate the unprotected baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/security"
)

func main() {
	suite := flag.String("suite", "", "restrict to one suite: RIPE | 'ASan tests' | How2Heap | 'False positives'")
	variant := flag.String("variant", "prediction", "protection variant")
	verbose := flag.Bool("v", false, "print every exploit outcome")
	jsonPath := flag.String("json", "", "write per-exploit outcomes as JSON to this file")
	flag.Parse()

	v, ok := decode.ParseVariant(*variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "chexsec: unknown variant %q\n", *variant)
		os.Exit(2)
	}

	var verboseOut io.Writer
	if *verbose {
		verboseOut = os.Stdout
	}
	order, bySuite := runSuites(*suite, v, verboseOut)

	if *jsonPath != "" {
		data, err := jsonReport(order, bySuite)
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chexsec:", err)
			os.Exit(1)
		}
	}

	os.Exit(writeSummary(os.Stdout, v, order, bySuite))
}

// runSuites runs every exploit of the named suite (all suites when
// suite is empty) under v. It returns the suites in first-seen order and
// the outcomes by suite, and prints each outcome to verbose when it is
// non-nil.
func runSuites(suite string, v decode.Variant, verbose io.Writer) ([]string, map[string][]*security.Outcome) {
	bySuite := map[string][]*security.Outcome{}
	var order []string
	for _, e := range security.All() {
		if suite != "" && !strings.EqualFold(e.Suite, suite) {
			continue
		}
		if _, seen := bySuite[e.Suite]; !seen {
			order = append(order, e.Suite)
		}
		out := security.Run(e, v)
		bySuite[e.Suite] = append(bySuite[e.Suite], out)
		if verbose != nil {
			fmt.Fprintln(verbose, out)
		}
	}
	return order, bySuite
}

// jsonReport renders the per-exploit outcomes as the -json artifact,
// suites in first-seen order and exploits in run order.
func jsonReport(order []string, bySuite map[string][]*security.Outcome) ([]byte, error) {
	type row struct {
		Suite, Name, Expect, Got string
		Correct                  bool
	}
	var rows []row
	for _, s := range order {
		for _, o := range bySuite[s] {
			got := "none"
			if o.Violation != nil {
				got = o.Violation.Kind.String()
			}
			rows = append(rows, row{o.Exploit.Suite, o.Exploit.Name,
				o.Exploit.Expect.String(), got, o.Correct()})
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	return append(data, '\n'), err
}

// writeSummary prints the per-suite summary, violation classes in kind
// order, and returns the exit code: 1 when the prediction-driven variant
// misses an expected outcome.
func writeSummary(w io.Writer, v decode.Variant, order []string, bySuite map[string][]*security.Outcome) int {
	exit := 0
	fmt.Fprintf(w, "\nSecurity evaluation under %q:\n", v)
	for _, s := range order {
		sum := security.Summarize(bySuite[s])
		fmt.Fprintf(w, "  %-16s %3d/%3d as expected", s, sum.Correct, sum.Total)
		if len(sum.ByClass) > 0 {
			kinds := make([]core.ViolationKind, 0, len(sum.ByClass))
			for k := range sum.ByClass {
				kinds = append(kinds, k)
			}
			slices.Sort(kinds)
			fmt.Fprint(w, "  [")
			for i, k := range kinds {
				if i > 0 {
					fmt.Fprint(w, ", ")
				}
				fmt.Fprintf(w, "%s: %d", k, sum.ByClass[k])
			}
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
		if v == decode.VariantMicrocodePrediction && sum.Correct != sum.Total {
			exit = 1
			for _, f := range sum.Failures {
				fmt.Fprintf(w, "    FAILURE %s\n", f)
			}
		}
	}
	return exit
}
