package main

import (
	"fmt"
	"math/rand"
	"time"
)

// run sets the workload up, then measures it: the timed run reports the
// end-to-end metrics, the traced run the per-layer ones.
func run(o options) (*report, error) {
	reps := o.setupReps
	if o.trace {
		reps = 1
	}
	setup := make([]float64, reps)
	var w *prepared
	for i := range setup {
		t0 := now()
		var err error
		if w, err = prepare(o); err != nil {
			return nil, err
		}
		setup[i] = now().Sub(t0).Seconds()
	}
	if err := w.setOracles(); err != nil {
		return nil, err
	}
	rep := measure(o, w)
	if !o.trace {
		rep.Metrics["setup_s"] = metric{median(setup), "s"}
	}
	return rep, nil
}

// measure cycles through the workload's ops in rounds, each round every
// op once in a seeded order, until the time budget is spent (at least one
// round; two in the traced run). The traced run alternates untraced and
// traced rounds, so the tracing overhead is measured on the same ops, and
// then runs the isolated layer replays of every op in a last traced pass,
// apart from the timed rounds so their garbage does not slow them.
func measure(o options, w *prepared) *report {
	rep := &report{Metrics: map[string]metric{}}
	rng := rand.New(rand.NewSource(o.seed))
	untraced := make([][]sample, len(w.ops))
	traced := make([][]sample, len(w.ops))
	var tr *tracer
	var heap *heapPeak
	var peaks []float64
	minRounds := 1
	if o.trace {
		tr = newTracer()
		minRounds = 2
	} else {
		heap = newHeapPeak()
	}
	rt := newRuntimeWindow()
	l := &layers{}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := now()
	for round := 0; ; round++ {
		tracing := round%2 == 1 && tr != nil
		var roundInsts uint64
		rt.begin()
		stopped := false
		for _, i := range rng.Perm(len(w.ops)) {
			if round >= minRounds && now().Sub(start) >= budget {
				stopped = true
				break
			}
			c := &opCtx{}
			if tracing {
				c = tr.beginOp("op:" + w.ops[i].label())
			}
			if heap != nil {
				c.settle = heap.settle
			}
			s, err := w.ops[i].exec(c)
			c.end()
			if heap != nil {
				heap.observe()
			}
			rep.Attempted++
			if err != nil {
				rep.Failed++
				rep.failures = append(rep.failures, fmt.Sprintf("%s: %v", w.ops[i].label(), err))
				continue
			}
			if tracing {
				traced[i] = append(traced[i], s)
			} else {
				untraced[i] = append(untraced[i], s)
				roundInsts += s.insts
			}
		}
		if !tracing {
			rt.end(roundInsts)
		}
		if heap != nil && !stopped {
			peaks = append(peaks, float64(heap.take()))
		}
		if stopped {
			break
		}
	}

	if o.trace {
		for _, i := range rng.Perm(len(w.ops)) {
			c := tr.beginOp("replay:" + w.ops[i].label())
			err := w.ops[i].replay(c, l)
			c.end()
			if err != nil {
				rep.Failed++
				rep.failures = append(rep.failures, fmt.Sprintf("%s replay: %v", w.ops[i].label(), err))
			}
		}
		rep.spans = tr.spans
		vals := layerValues(tr.spans, l, w, untraced, traced, rt)
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		lat, _ := opMedians(untraced)
		kinst, progs := rates(untraced)
		rep.Metrics["kinst_per_s"] = metric{kinst, "kinst/s"}
		rep.Metrics["programs_per_s"] = metric{progs, "1/s"}
		rep.Metrics["program_ms_p50"] = metric{1e3 * quantile(lat, 0.5), "ms"}
		rep.Metrics["program_ms_p90"] = metric{1e3 * quantile(lat, 0.9), "ms"}
		rep.Metrics["heap_peak_mb"] = metric{median(peaks) / 1e6, "MB"}
	}
	rep.Correct = rep.Failed == 0
	return rep
}
