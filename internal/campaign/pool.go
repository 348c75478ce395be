package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"chex86/internal/pipeline"
)

// ExecFunc executes one spec. The default is Execute (exec.go); tests and
// embedders substitute their own.
type ExecFunc func(ctx context.Context, spec *Spec) (*Result, error)

// ResultCache memoizes completed results by content address. *Cache is
// the on-disk implementation; the distributed fabric plugs in a two-tier
// cache (local disk, then peer fetch) through the same interface.
// Implementations must be safe for concurrent use; Lookup failures are
// misses, and Store failures only degrade future lookups.
type ResultCache interface {
	Lookup(spec Spec, key string) (*Result, bool)
	Store(spec Spec, key string, r *Result) error
}

// Options configures a Pool. The zero value is usable: GOMAXPROCS
// workers, no cache, the default executor, two retries with 50 ms initial
// backoff capped at 5 s, and no wall-clock probe.
type Options struct {
	// Workers is the shard count (one worker goroutine per shard).
	// Defaults to GOMAXPROCS — the pool runs compute-bound simulations, so
	// more workers than processors only adds contention.
	Workers int

	// Cache memoizes completed results by content address (nil = off).
	Cache ResultCache

	// Exec runs one spec (nil = Execute).
	Exec ExecFunc

	// Retries is how many times a run failing with a *transient* simulator
	// error (wall-clock deadline expiry, or any error exposing
	// `Transient() bool` = true) is retried before the job fails.
	// Deterministic failures — bad configuration, livelock, watchdog trips
	// — are never retried: they would fail identically again.
	Retries int

	// Backoff is the sleep before the first retry; it doubles per attempt
	// up to MaxBackoff.
	Backoff time.Duration

	// MaxBackoff caps the exponential growth so a long retry chain never
	// sleeps unboundedly (default 5s).
	MaxBackoff time.Duration

	// JitterSeed derives the deterministic retry jitter (default 1). Each
	// (job key, attempt) gets an independent point in [backoff/2, backoff]
	// from an xorshift stream seeded by (JitterSeed, key, attempt), so
	// synchronized transient failures fan out instead of stampeding in
	// lockstep — with no global PRNG state and full reproducibility.
	JitterSeed uint64

	// Clock is the host wall-clock probe in nanoseconds, injected by CLIs
	// (the campaign package itself never reads the wall clock — the chexvet
	// determinism gate holds it to that). nil disables per-job wall-time
	// measurement; job WallNS stays zero.
	Clock func() int64
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Exec == nil {
		o.Exec = Execute
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxBackoff < o.Backoff {
		o.MaxBackoff = o.Backoff
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return 0 }
	}
}

// retryDelay computes the sleep before retry `attempt` (0-based): the base
// backoff doubled per attempt, capped at MaxBackoff, then decorrelated
// into [d/2, d] by a deterministic xorshift draw keyed on (JitterSeed, job
// key, attempt). Identical inputs always produce identical delays; jobs
// with different keys desynchronize.
func (o *Options) retryDelay(key string, attempt int) time.Duration {
	d := o.Backoff
	for i := 0; i < attempt && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	fmt.Fprintf(h, "|%d", attempt)
	x := h.Sum64() ^ o.JitterSeed
	// xorshift64 mix so adjacent attempts land far apart.
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return half + time.Duration(x%uint64(half)+1)
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobPending JobState = "pending"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one scheduled simulation. Identical specs submitted while a job
// is in flight coalesce onto the same Job (singleflight), so a Job may
// have many waiters but runs at most one simulation.
type Job struct {
	ID   int
	Key  string
	Spec Spec

	done chan struct{}

	mu       sync.Mutex
	state    JobState
	attempts int
	cached   bool
	wallNS   int64
	result   *Result
	err      error
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the terminal result and error (nil, nil while running).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// JobStatus is a point-in-time, JSON-ready view of a job.
type JobStatus struct {
	ID       int      `json:"id"`
	Key      string   `json:"key"`
	Mode     Mode     `json:"mode"`
	Workload string   `json:"workload,omitempty"`
	Variant  string   `json:"variant,omitempty"`
	State    JobState `json:"state"`
	Cached   bool     `json:"cached"`
	Attempts int      `json:"attempts"`
	WallMS   float64  `json:"wallMS"`
	Error    string   `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		Key:      j.Key,
		Mode:     j.Spec.Mode,
		Workload: j.Spec.Workload,
		Variant:  j.Spec.variantName(),
		State:    j.state,
		Cached:   j.cached,
		Attempts: j.attempts,
		WallMS:   float64(j.wallNS) / 1e6,
	}
	if j.Spec.Mode == ModeFault && j.Spec.Fault != nil && len(j.Spec.Fault.Workloads) == 1 {
		st.Workload = j.Spec.Fault.Workloads[0]
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// WallNS returns the accumulated host execution time (0 for cache hits or
// when the pool has no clock).
func (j *Job) WallNS() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wallNS
}

// Cached reports whether the result came from the content-addressed cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// shard is one worker's job queue. Jobs are routed round-robin at
// submission; an idle worker steals the oldest job from a sibling shard,
// so an unlucky routing never leaves a processor idle while work queues.
type shard struct {
	mu sync.Mutex
	q  []*Job
}

func (s *shard) push(j *Job) {
	s.mu.Lock()
	s.q = append(s.q, j)
	s.mu.Unlock()
}

func (s *shard) pop() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.q) == 0 {
		return nil
	}
	j := s.q[0]
	s.q = s.q[1:]
	return j
}

// Pool executes jobs on sharded workers with singleflight dedup,
// content-addressed memoization, per-job panic isolation, and
// retry-with-backoff for transient simulator errors.
type Pool struct {
	opts    Options
	metrics Metrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	notify chan struct{}
	shards []*shard

	mu       sync.Mutex
	closed   bool
	nextID   int
	rr       int             // round-robin shard cursor
	inflight map[string]*Job // key → pending/running job (singleflight)
	jobs     []*Job          // every job ever submitted, by ID
}

// NewPool starts a pool and its workers.
func NewPool(opts Options) *Pool {
	opts.setDefaults()
	p := &Pool{
		opts:     opts,
		notify:   make(chan struct{}, opts.Workers),
		inflight: make(map[string]*Job),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		p.shards = append(p.shards, &shard{})
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Workers returns the shard/worker count.
func (p *Pool) Workers() int { return len(p.shards) }

// Metrics exposes the pool's counters.
func (p *Pool) Metrics() *Metrics { return &p.metrics }

// Submit schedules a spec and returns its job. If an identical spec (same
// content address) is already pending or running, its Job is returned
// instead of starting a second simulation; if the cache already holds the
// result, the returned job is complete before Submit returns, marked
// cached.
func (p *Pool) Submit(spec Spec) (*Job, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("campaign: pool is closed")
	}
	p.metrics.Submitted.Add(1)
	if j := p.inflight[key]; j != nil {
		p.mu.Unlock()
		p.metrics.Deduped.Add(1)
		return j, nil
	}
	p.nextID++
	j := &Job{ID: p.nextID, Key: key, Spec: spec, state: JobPending, done: make(chan struct{})}
	p.jobs = append(p.jobs, j)
	p.inflight[key] = j
	p.mu.Unlock()

	if p.opts.Cache != nil {
		if res, ok := p.opts.Cache.Lookup(spec, key); ok {
			p.metrics.CacheHits.Add(1)
			j.mu.Lock()
			j.cached = true
			j.mu.Unlock()
			p.finish(j, res, nil)
			return j, nil
		}
		p.metrics.CacheMisses.Add(1)
	}

	p.mu.Lock()
	sh := p.shards[p.rr%len(p.shards)]
	p.rr++
	p.mu.Unlock()
	sh.push(j)
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return j, nil
}

// Job returns the job with the given ID, or nil.
func (p *Pool) Job(id int) *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 1 || id > len(p.jobs) {
		return nil
	}
	return p.jobs[id-1]
}

// Jobs snapshots every job submitted so far, in submission order.
func (p *Pool) Jobs() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Job, len(p.jobs))
	copy(out, p.jobs)
	return out
}

// Close stops the workers and fails every job that has not finished with a
// cancellation error. It is safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()

	p.cancel()
	p.wg.Wait()

	// Workers are gone; anything still queued or mid-flight bookkeeping
	// gets a terminal cancellation so waiters unblock.
	for _, j := range p.Jobs() {
		select {
		case <-j.done:
		default:
			p.finish(j, nil, &pipeline.SimError{Kind: pipeline.ErrCanceled, Msg: "campaign pool closed"})
		}
	}
}

// worker is one shard's goroutine: drain the own queue, steal when idle.
func (p *Pool) worker(self int) {
	defer p.wg.Done()
	for {
		j := p.next(self)
		if j == nil {
			select {
			case <-p.ctx.Done():
				return
			case <-p.notify:
				continue
			}
		}
		if p.ctx.Err() != nil {
			p.finish(j, nil, &pipeline.SimError{Kind: pipeline.ErrCanceled, Msg: "campaign pool closed"})
			continue
		}
		p.runJob(j)
	}
}

// next pops from the worker's own shard, then steals round-robin.
func (p *Pool) next(self int) *Job {
	n := len(p.shards)
	for i := 0; i < n; i++ {
		if j := p.shards[(self+i)%n].pop(); j != nil {
			return j
		}
	}
	return nil
}

// runJob executes one job with retry-with-backoff, records wall time, and
// publishes the result (to waiters and, on success, the cache).
func (p *Pool) runJob(j *Job) {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	var res *Result
	var err error
	for attempt := 0; ; attempt++ {
		p.metrics.Started.Add(1)
		j.mu.Lock()
		j.attempts++
		j.mu.Unlock()

		start := p.opts.Clock()
		res, err = p.execOne(j)
		elapsed := p.opts.Clock() - start
		j.mu.Lock()
		j.wallNS += elapsed
		j.mu.Unlock()

		if err == nil || attempt >= p.opts.Retries || !Transient(err) {
			break
		}
		p.metrics.Retried.Add(1)
		select {
		case <-p.ctx.Done():
			err = &pipeline.SimError{Kind: pipeline.ErrCanceled, Msg: "campaign pool closed", Err: err}
		case <-time.After(p.opts.retryDelay(j.Key, attempt)):
			continue
		}
		break
	}

	if err != nil {
		p.finish(j, nil, err)
		return
	}
	if p.opts.Cache != nil {
		// A cache-write failure degrades future runs, not this one: the
		// result is still correct, so the job succeeds and the miss is
		// simply paid again next sweep.
		_ = p.opts.Cache.Store(j.Spec, j.Key, res)
	}
	p.finish(j, res, nil)
}

// execOne runs the executor once with panic isolation: a panic anywhere in
// the simulator becomes this job's error, never the pool's crash.
func (p *Pool) execOne(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.metrics.Panics.Add(1)
			err = fmt.Errorf("campaign: job %d (%s %s) panicked: %v", j.ID, j.Spec.Mode, j.Spec.Workload, r)
		}
	}()
	ctx := p.ctx
	if j.Spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	return p.opts.Exec(ctx, &j.Spec)
}

// finish moves a job to its terminal state exactly once.
func (p *Pool) finish(j *Job, res *Result, err error) {
	j.mu.Lock()
	select {
	case <-j.done:
		j.mu.Unlock()
		return
	default:
	}
	j.result, j.err = res, err
	if err != nil {
		j.state = JobFailed
		p.metrics.Failed.Add(1)
	} else {
		j.state = JobDone
		p.metrics.Completed.Add(1)
	}
	// Leave the in-flight table before waking waiters: a waiter that
	// resubmits the spec at once must reach the cache, not be deduped onto
	// this finished job. (Lock order is j.mu, then p.mu; nothing takes
	// them the other way round.)
	p.mu.Lock()
	if p.inflight[j.Key] == j {
		delete(p.inflight, j.Key)
	}
	p.mu.Unlock()
	close(j.done)
	j.mu.Unlock()
}

// Transient reports whether an error is worth retrying: wall-clock
// deadline expiry (host scheduling jitter can starve a run that would
// otherwise finish) or anything implementing `Transient() bool`.
// Deterministic simulator failures — config rejection, livelock, watchdog
// hangs, cancellation — re-fail identically and are permanent.
func Transient(err error) bool {
	var se *pipeline.SimError
	if errors.As(err, &se) {
		return se.Kind == pipeline.ErrDeadline
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
