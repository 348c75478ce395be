package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tiny sizes a run for the smoke test: one round of small programs.
func tiny(workload string, trace bool) options {
	return options{workload: workload, seed: 3, trace: trace, scale: 0.02, genomes: 6, setupReps: 2}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (workloads []string, endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// checkMetrics requires exactly the declared metrics, each with its
// declared unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json declares %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	workloads, endToEnd, perLayer := loadSpec(t)
	if len(workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", workloads, workloadNames())
	}
	for i, name := range workloadNames() {
		if workloads[i] != name {
			t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", workloads, workloadNames())
		}
		t.Run(name, func(t *testing.T) {
			rep, err := run(tiny(name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d %v", rep.Correct, rep.Attempted, rep.Failed, rep.failures)
			}
			checkMetrics(t, rep.Metrics, endToEnd)
			for _, m := range endToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
				}
			}

			rep, err = run(tiny(name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("traced run failed: %v", rep.failures)
			}
			checkMetrics(t, rep.Metrics, perLayer)
			checkSpans(t, rep.spans)
		})
	}
}

// checkSpans requires every child span to lie within its parent and to
// share its op.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("span %+v has negative self time %v", spans[i], d)
		}
	}
}

// TestWrongCountFails proves the correctness check bites: with one
// program's expected retired count off by one, every op on it fails and
// the run is not correct.
func TestWrongCountFails(t *testing.T) {
	for _, name := range []string{"parsec-insecure", fuzzWorkload} {
		t.Run(name, func(t *testing.T) {
			o := tiny(name, false)
			w, err := prepare(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setOracles(); err != nil {
				t.Fatal(err)
			}
			w.programs[0].want++
			rep := measure(o, w)
			if rep.Correct || rep.Failed != 1 {
				t.Fatalf("correct=%v failed=%d, want one failed op", rep.Correct, rep.Failed)
			}
		})
	}
}
