package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/emu"
	"chex86/internal/lockstep"
	"chex86/internal/lockstep/progen"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// catalogSpec is a workload of catalog profiles, each simulated to
// completion under each of variants.
type catalogSpec struct {
	suite    string
	variants []decode.Variant
	// headline is the variant pipeline.sim_slowdown_pct compares against
	// the insecure baseline.
	headline decode.Variant
}

var catalogs = map[string]catalogSpec{
	"spec-protected": {
		suite:    workload.SuiteSPEC,
		variants: []decode.Variant{decode.VariantMicrocodeAlwaysOn, decode.VariantMicrocodePrediction},
		headline: decode.VariantMicrocodePrediction,
	},
	"parsec-insecure": {
		suite:    workload.SuitePARSEC,
		variants: []decode.Variant{decode.VariantInsecure},
		headline: decode.VariantInsecure,
	},
}

const fuzzWorkload = "fuzz-lockstep"

// fuzzConds is the benchmark's own lockstep matrix: it names its four
// conditions rather than taking the harness default, so the benchmark
// does not change when the default matrix does.
var fuzzConds = []lockstep.Condition{
	{Variant: decode.VariantInsecure},
	{Variant: decode.VariantMicrocodeAlwaysOn},
	{Variant: decode.VariantMicrocodePrediction},
	{Variant: decode.VariantMicrocodePrediction, Elide: true, Hoist: true},
}

// fuzzVariants are the distinct variants of fuzzConds.
var fuzzVariants = []decode.Variant{decode.VariantInsecure, decode.VariantMicrocodeAlwaysOn, decode.VariantMicrocodePrediction}

// fuzzMaxInsts is the lockstep harness's default per-run budget; the
// reference count uses the same bound.
const fuzzMaxInsts = 500_000

func workloadNames() []string {
	return []string{"spec-protected", "parsec-insecure", fuzzWorkload}
}

// sample is one op execution's host time and simulated work.
type sample struct {
	dur   time.Duration
	insts uint64 // macro-insts retired (lockstep: commits over all conditions)
}

// op is one unit of the timed loop: a catalog profile under one variant,
// or one genome through the lockstep matrix.
type op interface {
	label() string
	// exec runs the op once and checks its outputs.
	exec(c *opCtx) (sample, error)
	// replay runs the traced run's isolated layer replays for the op.
	replay(c *opCtx, l *layers) error
}

// program is one guest program shared by the ops that run it.
type program struct {
	name  string
	prog  *asm.Program
	harts int
	// maxInsts bounds every run of the program (0: run to completion).
	maxInsts uint64
	// variants are the protection variants the program runs under; the
	// traced run replays decode once for each.
	variants []decode.Variant
	// want is the retired-instruction count of an independent emu run.
	want uint64

	// Traced run only: whether the layer replays have run, and the
	// insecure reference result.
	replayed bool
	ref      *pipeline.Result
}

// prepared is a workload after set-up.
type prepared struct {
	ops      []op
	programs []*program
}

// prepare is the timed set-up: it generates and builds every program of
// the workload and, for catalog workloads, constructs one Sim per op.
func prepare(o options) (*prepared, error) {
	if spec, ok := catalogs[o.workload]; ok {
		return prepareCatalog(o, spec)
	}
	if o.workload == fuzzWorkload {
		return prepareFuzz(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
}

func prepareCatalog(o options, spec catalogSpec) (*prepared, error) {
	w := &prepared{}
	for _, prof := range workload.Catalog() {
		if prof.Suite != spec.suite {
			continue
		}
		prog, err := prof.Build(o.scale)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", prof.Name, err)
		}
		p := &program{name: prof.Name, prog: prog, harts: max(prof.Threads, 1), variants: spec.variants}
		w.programs = append(w.programs, p)
		for _, v := range spec.variants {
			if _, err := pipeline.NewSim(prog, simConfig(v), p.harts); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof.Name, variantName(v), err)
			}
			w.ops = append(w.ops, &simOp{p: p, prof: prof, scale: o.scale, variant: v, headline: spec.headline})
		}
	}
	return w, nil
}

func prepareFuzz(o options) (*prepared, error) {
	w := &prepared{}
	muts := progen.Mutations()
	for i := 0; i < o.genomes; i++ {
		// Odd genomes carry a mutation, rotating through every class.
		var opts progen.Options
		kind := "safe"
		if i%2 == 1 {
			opts.Mutation = muts[(i/2)%len(muts)]
			kind = string(opts.Mutation)
		}
		g := progen.Generate(genomeSeed(o.seed, i), opts)
		prog, err := g.Build()
		if err != nil {
			return nil, fmt.Errorf("genome %d: %w", i, err)
		}
		p := &program{name: fmt.Sprintf("genome%03d-%s", i, kind), prog: prog, harts: 1,
			maxInsts: fuzzMaxInsts, variants: fuzzVariants}
		w.programs = append(w.programs, p)
		w.ops = append(w.ops, &genomeOp{p: p, g: g})
	}
	return w, nil
}

// genomeSeed derives genome i's generator seed from the run seed
// (splitmix64).
func genomeSeed(seed int64, i int) uint64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// setOracles computes each program's expected retired count with an
// independent emu run. It is a check, not set-up, so it is not timed.
func (w *prepared) setOracles() error {
	for _, p := range w.programs {
		n, err := emuCount(p)
		if err != nil {
			return err
		}
		p.want = n
	}
	return nil
}

// emuCount counts the instructions a fresh functional machine retires
// over p.
func emuCount(p *program) (uint64, error) {
	n, err := stepAll(emu.New(p.prog, emu.Options{Harts: p.harts, MaxInsts: p.maxInsts}), nil)
	if err != nil {
		return 0, fmt.Errorf("%s: emu: %w", p.name, err)
	}
	return n, nil
}

// simConfig is the paper harness's machine under variant v, run to
// completion with statistics from the first instruction: no warm-up
// window, so Result.MacroInsts is the program's whole retired count.
func simConfig(v decode.Variant) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Variant = v
	return cfg
}

func variantName(v decode.Variant) string {
	switch v {
	case decode.VariantInsecure:
		return "baseline"
	case decode.VariantMicrocodeAlwaysOn:
		return "always-on"
	case decode.VariantMicrocodePrediction:
		return "prediction"
	}
	return v.String()
}

// fingerprint pins an op's first simulated result; every repeat of the op
// within a run must reproduce it exactly.
type fingerprint struct {
	set bool
	sum [32]byte
}

func (f *fingerprint) check(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if !f.set {
		f.set, f.sum = true, sum
		return nil
	}
	if sum != f.sum {
		return errors.New("simulated result differs from the op's first run")
	}
	return nil
}

// simOp is one catalog profile simulated under one variant.
type simOp struct {
	p        *program
	prof     *workload.Profile
	scale    float64
	variant  decode.Variant
	headline decode.Variant
	fp       fingerprint
	first    *pipeline.Result
}

func (o *simOp) label() string { return o.p.name + "/" + variantName(o.variant) }

func (o *simOp) exec(c *opCtx) (sample, error) {
	var err error
	if c.tr != nil {
		c.call("workload.build", func() uint64 {
			_, err = o.prof.Build(o.scale)
			return 0
		})
		if err != nil {
			return sample{}, fmt.Errorf("build: %w", err)
		}
	}
	_, res, d, err := simulate(c, "", o.p, simConfig(o.variant), nil)
	if err != nil {
		return sample{}, err
	}
	if err := o.check(res); err != nil {
		return sample{}, err
	}
	return sample{dur: d, insts: res.MacroInsts}, nil
}

func (o *simOp) check(res *pipeline.Result) error {
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("%d violations reported on a safe program", n)
	}
	if res.MacroInsts != o.p.want {
		return fmt.Errorf("retired %d macro-insts, independent emu retired %d", res.MacroInsts, o.p.want)
	}
	if err := o.fp.check(res); err != nil {
		return err
	}
	if o.first == nil {
		o.first = res
	}
	return nil
}

// genomeOp is one progen genome run through the lockstep matrix.
type genomeOp struct {
	p       *program
	g       *progen.Genome
	fp      fingerprint
	commits uint64 // per execution, once checked
}

func (o *genomeOp) label() string { return o.p.name }

func (o *genomeOp) exec(c *opCtx) (sample, error) {
	if c.tr != nil {
		var err error
		c.call("progen.build", func() uint64 {
			_, err = o.g.Build()
			return 0
		})
		if err != nil {
			return sample{}, fmt.Errorf("build: %w", err)
		}
	}
	var pr *lockstep.ProgramResult
	d := c.call("lockstep.run_genome", func() uint64 {
		pr = lockstep.RunGenome(o.g, fuzzConds, lockstep.RunOptions{MaxInsts: fuzzMaxInsts})
		return pr.Commits
	})
	if err := o.check(pr); err != nil {
		return sample{}, err
	}
	return sample{dur: d, insts: pr.Commits}, nil
}

func (o *genomeOp) check(pr *lockstep.ProgramResult) error {
	if pr.Failure != nil {
		return errors.New(pr.Failure.String())
	}
	if len(pr.Conds) != len(fuzzConds) {
		return fmt.Errorf("%d condition results, want %d", len(pr.Conds), len(fuzzConds))
	}
	for _, rc := range pr.Conds {
		if rc.Commits != o.p.want {
			return fmt.Errorf("%s committed %d, independent emu retired %d", rc.Name, rc.Commits, o.p.want)
		}
	}
	if err := o.fp.check(pr); err != nil {
		return err
	}
	o.commits = pr.Commits
	return nil
}
