package main

import "time"

// span is one timed call into a layer. Spans of one op execution share
// Op; Parent is the enclosing span's ID (0 for an op's root span). Count
// is the work the call did (instructions, commits, accesses), so ratios
// are taken where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  uint64 `json:"count,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) open(op, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op,
		Name: name, Start: int64(now().Sub(t.epoch))})
	return len(t.spans)
}

func (t *tracer) close(id int, count uint64) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(now().Sub(t.epoch))
	s.Count = count
	return s.dur()
}

// opCtx times the calls of one op execution. With a tracer it also
// records the op as a root span and each call as a child span; without
// one it only reads the clock, so the timed run pays nothing for tracing.
type opCtx struct {
	tr   *tracer
	op   int
	root int
	// settle, when set, is called after a simulation's untimed end with
	// the Sim still reachable, so heap_peak_mb counts its live state.
	settle func()
}

// beginOp opens the root span of one op execution.
func (t *tracer) beginOp(name string) *opCtx {
	t.ops++
	return &opCtx{tr: t, op: t.ops, root: t.open(t.ops, 0, name)}
}

// end closes the op's root span.
func (c *opCtx) end() {
	if c.tr != nil {
		c.tr.close(c.root, 0)
	}
}

// call runs fn, which returns the work it did, and returns fn's host time.
func (c *opCtx) call(name string, fn func() uint64) time.Duration {
	if c.tr == nil {
		t0 := now()
		fn()
		return now().Sub(t0)
	}
	id := c.tr.open(c.op, c.root, name)
	n := fn()
	return c.tr.close(id, n)
}

// selfTimes returns each span's duration minus the time its children
// cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p > 0 {
			self[p-1] -= spans[i].dur()
		}
	}
	return self
}
