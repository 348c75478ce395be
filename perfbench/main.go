// Command perfbench is the repository benchmark. It runs one of three
// workloads against the simulator's public entry points, checks every
// simulated output, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end host numbers; with
// --trace 1 a separate traced run records spans around each layer call and
// prints the per-layer numbers instead. See README.md for the workloads,
// the metrics and the layer table.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload spec-protected --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options sizes one benchmark run. The CLI fixes everything but the four
// driver flags; the smoke test shrinks the rest.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string

	scale     float64 // catalog Profile.Build scale
	genomes   int     // fuzz-lockstep genome pool size
	setupReps int     // set-up repetitions; setup_s is their median
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	spans    []span
}

func main() {
	o := options{scale: 1, genomes: 512, setupReps: 11}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed for genome generation and op order")
	flag.Float64Var(&o.seconds, "seconds", 35, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	if o.trace && o.spansDir != "" {
		if err := writeSpans(o, rep.spans); err != nil {
			fail(err)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g mode=%s attempted=%d failed=%d\n",
		o.workload, o.seed, o.seconds, mode, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeSpans(o options, spans []span) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, data, 0o644)
}

// now reads the host clock. Host time is what this benchmark measures, so
// it is the one wall-clock read in the package.
func now() time.Time { return time.Now() } //determinism:ok — host-throughput benchmark
