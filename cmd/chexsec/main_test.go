package main

import (
	"bytes"
	"testing"

	"chex86/internal/decode"
)

// TestOutputDeterministic renders the -json artifact and the summary
// several times from one set of outcomes and requires identical bytes:
// both are built from maps (outcomes by suite, violations by class), so
// any rendering that follows map iteration order varies run to run.
func TestOutputDeterministic(t *testing.T) {
	for _, v := range []decode.Variant{decode.VariantMicrocodePrediction, decode.VariantInsecure} {
		order, bySuite := runSuites("", v, nil)
		if len(order) < 2 {
			t.Fatalf("%v: %d suites, want several", v, len(order))
		}
		var firstJSON, firstSum []byte
		for i := 0; i < 8; i++ {
			js, err := jsonReport(order, bySuite)
			if err != nil {
				t.Fatal(err)
			}
			var sum bytes.Buffer
			writeSummary(&sum, v, order, bySuite)
			if i == 0 {
				firstJSON, firstSum = js, sum.Bytes()
				continue
			}
			if !bytes.Equal(js, firstJSON) {
				t.Fatalf("%v: -json output differs between renders", v)
			}
			if !bytes.Equal(sum.Bytes(), firstSum) {
				t.Fatalf("%v: summary differs between renders:\n%s\n%s", v, firstSum, sum.Bytes())
			}
		}
	}
}
