package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opMedians returns each op's median host time in seconds, skipping ops
// without samples, and the simulated work of one execution of each.
func opMedians(samples [][]sample) (secs, insts []float64) {
	for _, ss := range samples {
		if len(ss) == 0 {
			continue
		}
		ds := make([]float64, len(ss))
		for i, s := range ss {
			ds[i] = s.dur.Seconds()
		}
		secs = append(secs, median(ds))
		insts = append(insts, float64(ss[0].insts))
	}
	return secs, insts
}

// rates returns simulated Kinst/s and ops/s from each op's median host
// time: a transient stall on the shared host moves one sample of one op,
// not the result.
func rates(samples [][]sample) (kinstPerS, opsPerS float64) {
	secs, insts := opMedians(samples)
	var total, work float64
	for i := range secs {
		total += secs[i]
		work += insts[i]
	}
	return ratio(work, total) / 1e3, ratio(float64(len(secs)), total)
}

// heapPeak tracks the largest live Go heap the collector has marked since
// the last take. It is read after every op, not sampled in the
// background: a sampling goroutine slowed fuzz-lockstep by 5-10%.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
}

// settle collects garbage and records the live heap, which then holds
// everything the caller still references.
func (h *heapPeak) settle() {
	runtime.GC()
	h.observe()
}

// take returns the peak in bytes and starts a new one.
func (h *heapPeak) take() uint64 {
	p := h.peak
	h.peak = 0
	return p
}

// runtimeWindow accumulates Go runtime costs over the untraced rounds of a
// traced run.
type runtimeWindow struct {
	s                  []metrics.Sample
	gcCPU, busyCPU     float64
	allocBytes, insts  uint64
	startGC, startBusy float64
	startAlloc         uint64
}

func newRuntimeWindow() *runtimeWindow {
	return &runtimeWindow{s: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (r *runtimeWindow) read() (gc, busy float64, alloc uint64) {
	metrics.Read(r.s)
	return r.s[0].Value.Float64(), r.s[1].Value.Float64() - r.s[2].Value.Float64(), r.s[3].Value.Uint64()
}

func (r *runtimeWindow) begin() { r.startGC, r.startBusy, r.startAlloc = r.read() }

func (r *runtimeWindow) end(insts uint64) {
	gc, busy, alloc := r.read()
	r.gcCPU += gc - r.startGC
	r.busyCPU += busy - r.startBusy
	r.allocBytes += alloc - r.startAlloc
	r.insts += insts
}
