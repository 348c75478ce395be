package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"chex86/internal/cache"
	"chex86/internal/decode"
	"chex86/internal/elide"
	"chex86/internal/emu"
	"chex86/internal/isa"
	"chex86/internal/lockstep/progen"
	"chex86/internal/mem"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
)

// layers collects the simulated results the traced run's per-layer counts
// are taken from.
type layers struct {
	results  []*pipeline.Result // one per op (fuzz: the guarded direct run)
	pairs    [][2]*pipeline.Result
	subsumed uint64 // checks subsumed into hoisted guards (Sim.GuardStats)
	guarded  uint64 // checks run plus elided in the guarded runs
}

// simulate constructs and runs one Sim of p, recording NewSim and Run as
// spans named with suffix, and returns Run's host time. An error from Run
// comes with the partial result.
func simulate(c *opCtx, suffix string, p *program, cfg pipeline.Config, install func(*pipeline.Sim)) (*pipeline.Sim, *pipeline.Result, time.Duration, error) {
	var sim *pipeline.Sim
	var err error
	c.call("pipeline.newsim"+suffix, func() uint64 {
		sim, err = pipeline.NewSim(p.prog, cfg, p.harts)
		return 0
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if install != nil {
		install(sim)
	}
	var res *pipeline.Result
	d := c.call("pipeline.run"+suffix, func() uint64 {
		res, err = sim.Run()
		if res == nil {
			return 0
		}
		return res.MacroInsts
	})
	if err != nil {
		return sim, res, d, fmt.Errorf("run: %w", err)
	}
	if c.settle != nil {
		c.settle()
	}
	return sim, res, d, nil
}

// simulateDirect is simulate for the traced run's direct simulations of a
// program: it may end in a functional fault, as the lockstep harness
// allows, but it must retire what the independent emu run retires, and
// with clean set it must report no violation.
func simulateDirect(c *opCtx, suffix string, p *program, cfg pipeline.Config, clean bool, install func(*pipeline.Sim)) (*pipeline.Sim, *pipeline.Result, error) {
	sim, res, _, err := simulate(c, suffix, p, cfg, install)
	var fault *emu.Fault
	if err != nil && (res == nil || !errors.As(err, &fault)) {
		return nil, nil, err
	}
	if res.MacroInsts != p.want {
		return nil, nil, fmt.Errorf("%s: retired %d macro-insts, independent emu retired %d", cfg.Variant, res.MacroInsts, p.want)
	}
	if clean && len(res.Violations) > 0 {
		return nil, nil, fmt.Errorf("%s: %d violations reported on a clean run", cfg.Variant, len(res.Violations))
	}
	return sim, res, nil
}

func (o *simOp) replay(c *opCtx, l *layers) error {
	if !o.p.replayed {
		o.p.replayed = true
		if err := replayLayers(c, o.p); err != nil {
			return err
		}
		_, ref, err := simulateDirect(c, ".insecure", o.p, simConfig(decode.VariantInsecure), true, nil)
		if err != nil {
			return err
		}
		o.p.ref = ref
	}
	l.results = append(l.results, o.first)
	if o.variant == o.headline {
		l.pairs = append(l.pairs, [2]*pipeline.Result{o.first, o.p.ref})
	}
	return nil
}

func (o *genomeOp) replay(c *opCtx, l *layers) error {
	p := o.p
	if err := replayLayers(c, p); err != nil {
		return err
	}
	var an *ptrflow.Analysis
	var err error
	c.call("ptrflow.analyze", func() uint64 {
		an, err = ptrflow.Analyze(p.prog, ptrflow.Options{Harts: 1})
		return 0
	})
	if err != nil {
		return fmt.Errorf("ptrflow: %w", err)
	}
	var rep *elide.Report
	c.call("elide.check", func() uint64 {
		rep = elide.FromAnalysis(p.prog, an, elide.Options{Harts: 1})
		return uint64(rep.Stats.Elided)
	})

	cfg := simConfig(decode.VariantMicrocodePrediction)
	cfg.MaxInsts = p.maxInsts
	cfg.ElideChecks, cfg.ElisionDigest, cfg.ElisionCtxK = true, rep.Digest, rep.CtxK
	cfg.HoistGuards, cfg.GuardDigest = true, rep.Guards.Digest
	sim, res, err := simulateDirect(c, "", p, cfg, o.g.Mutation == progen.MutNone, func(s *pipeline.Sim) {
		s.SetElisionMap(rep.Map)
		s.SetGuardMap(rep.Guards.Map)
	})
	if err != nil {
		return err
	}
	cfg = simConfig(decode.VariantInsecure)
	cfg.MaxInsts = p.maxInsts
	_, ref, err := simulateDirect(c, ".insecure", p, cfg, true, nil)
	if err != nil {
		return err
	}
	l.subsumed += sim.GuardStats().SubsumedChecks
	l.guarded += res.ChecksRun + res.ChecksElided
	l.results = append(l.results, res)
	l.pairs = append(l.pairs, [2]*pipeline.Result{res, ref})
	return nil
}

// stepAll steps m to the end of its program, handing each record to visit
// (when non-nil) before recycling it. A functional fault ends the stream,
// as it ends the pipeline's run.
func stepAll(m *emu.Machine, visit func(*emu.Rec)) (uint64, error) {
	var n uint64
	for {
		rec, err := m.Step()
		var fault *emu.Fault
		if errors.As(err, &fault) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if rec == nil {
			return n, nil
		}
		if visit != nil {
			visit(rec)
		}
		n++
		m.Recycle(rec)
	}
}

// access is one committed data access, replayed through a fresh cache
// hierarchy.
type access struct {
	ea    uint64
	write bool
}

// replayLayers runs the isolated layer replays of p: a timed emu replay
// of the whole program, then, over its recorded committed stream, an
// uncached decode replay per variant and a replay of the data accesses
// through a fresh cache hierarchy.
func replayLayers(c *opCtx, p *program) error {
	opts := emu.Options{Harts: p.harts, MaxInsts: p.maxInsts}
	m := emu.New(p.prog, opts)
	var n uint64
	var err error
	c.call("emu.replay", func() uint64 {
		n, err = stepAll(m, nil)
		return n
	})
	if err != nil {
		return fmt.Errorf("emu replay: %w", err)
	}
	if n != p.want {
		return fmt.Errorf("emu replay retired %d, independent emu retired %d", n, p.want)
	}

	var dec decode.Decoder
	var buf []isa.Uop
	var stream []*isa.Inst
	var accs []access
	if _, err := stepAll(emu.New(p.prog, opts), func(rec *emu.Rec) {
		stream = append(stream, rec.Inst)
		if !rec.HasEA {
			return
		}
		buf = dec.Native(rec.Inst, buf[:0])
		for i := range buf {
			if buf[i].Type.IsMem() {
				accs = append(accs, access{rec.EA, buf[i].Type == isa.UStore})
			}
		}
	}); err != nil {
		return fmt.Errorf("emu record: %w", err)
	}

	for _, v := range p.variants {
		replayDecode(c, stream, v)
	}
	var h *cache.Hierarchy
	c.call("cache.alloc", func() uint64 {
		h = newHierarchy()
		return 0
	})
	c.call("cache.replay", func() uint64 {
		for i, a := range accs {
			h.AccessDataAt(a.ea, a.write, uint64(i))
		}
		return uint64(len(accs))
	})
	return nil
}

// replayDecode decodes a committed stream without the μop cache: Native
// for every instruction, plus check injection at every memory μop on
// variants that inject checks. It bounds what translation caching can
// save.
func replayDecode(c *opCtx, stream []*isa.Inst, v decode.Variant) {
	inject := v.InjectsChecks()
	always := func(*isa.Uop) decode.CheckDecision { return decode.CheckDecision{Inject: true} }
	var dec decode.Decoder
	var buf []isa.Uop
	c.call("decode.replay", func() uint64 {
		for _, in := range stream {
			buf = dec.Native(in, buf[:0])
			if inject {
				dec.Customize(buf, always)
			}
		}
		return uint64(len(stream))
	})
}

// newHierarchy builds one core's cache hierarchy at the Table III sizes,
// as pipeline.NewSim does.
func newHierarchy() *cache.Hierarchy {
	cfg := pipeline.DefaultConfig()
	ram := mem.NewDRAM(cfg.DRAMLatency)
	ram.CyclesPerLine = cfg.DRAMCycLine
	return &cache.Hierarchy{
		L1I:    cache.NewLineCache("L1I", cfg.L1ISizeKB*1024, cfg.L1IWays, cfg.LineSize, cfg.L1Latency),
		L1D:    cache.NewLineCache("L1D", cfg.L1DSizeKB*1024, cfg.L1DWays, cfg.LineSize, cfg.L1Latency),
		L2:     cache.NewLineCache("L2", cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineSize, cfg.L2Latency),
		LLC:    cache.NewLineCache("LLC", cfg.LLCSizeKB*1024, cfg.LLCWays, cfg.LineSize, cfg.LLCLatency),
		Shadow: cache.NewLineCache("shadow", cfg.ShadowCacheKB*1024, 8, cfg.LineSize, 4),
		Ram:    ram,
	}
}

// perLayer lists the traced run's metrics with their units, in report
// order.
var perLayer = []struct{ name, unit string }{
	{"pipeline.newsim_ms", "ms"},
	{"cache.alloc_ms", "ms"},
	{"progen.build_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"ptrflow.analyze_ms", "ms"},
	{"elide.check_ms", "ms"},
	{"elide.guard_subsumed_frac", "ratio"},
	{"emu.ns_per_inst", "ns/inst"},
	{"emu.share", "ratio"},
	{"decode.ns_per_inst", "ns/inst"},
	{"pipeline.ns_per_inst", "ns/inst"},
	{"pipeline.self_ns_per_inst", "ns/inst"},
	{"pipeline.ns_per_uop", "ns/uop"},
	{"pipeline.protect_ns_per_inst", "ns/inst"},
	{"core.checks_per_inst", "checks/inst"},
	{"core.elided_frac", "ratio"},
	{"core.cap_cache_miss", "ratio"},
	{"core.cap_lat_per_check", "cycles/check"},
	{"tracker.alias_walks_per_kinst", "walks/kinst"},
	{"tracker.alias_cache_miss", "ratio"},
	{"tracker.walk_lat_per_walk", "cycles/walk"},
	{"tracker.pred_mispredict", "ratio"},
	{"cache.ns_per_access", "ns/access"},
	{"cache.l1d_miss", "ratio"},
	{"cache.llc_miss", "ratio"},
	{"cache.shadow_miss", "ratio"},
	{"cache.dram_bytes_per_inst", "B/inst"},
	{"pipeline.uops_per_inst", "uops/inst"},
	{"pipeline.injected_per_inst", "uops/inst"},
	{"pipeline.cpi", "cycles/inst"},
	{"pipeline.squash_pct", "%"},
	{"pipeline.sim_slowdown_pct", "%"},
	{"lockstep.ns_per_commit", "ns/commit"},
	{"lockstep.commits_per_program", "commits"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_inst", "B/inst"},
	{"trace.overhead_pct", "%"},
	{"trace.op_self_ms", "ms"},
}

// layerValues computes the per-layer metrics: host times from the spans,
// simulated counts from the collected results.
func layerValues(spans []span, l *layers, w *prepared, untraced, traced [][]sample, rt *runtimeWindow) map[string]float64 {
	self := selfTimes(spans)
	selfMS := map[string][]float64{}
	durNS := map[string]float64{}
	count := map[string]float64{}
	for i := range spans {
		name := spans[i].Name
		if spans[i].Parent == 0 {
			// Root spans are named "op:<label>" in the timed rounds and
			// "replay:<label>" in the replay pass.
			name, _, _ = strings.Cut(name, ":")
		}
		selfMS[name] = append(selfMS[name], float64(self[i])/1e6)
		durNS[name] += float64(spans[i].dur())
		count[name] += float64(spans[i].Count)
	}
	perUnit := func(name string) float64 { return ratio(durNS[name], count[name]) }

	var r pipeline.Result
	var cycles, predMiss, predResolved float64
	for _, x := range l.results {
		r.MacroInsts += x.MacroInsts
		r.NativeUops += x.NativeUops
		r.InjectedUops += x.InjectedUops
		r.SquashCycles += x.SquashCycles
		r.CapMissLat += x.CapMissLat
		r.WalkLat += x.WalkLat
		r.ChecksRun += x.ChecksRun
		r.ChecksElided += x.ChecksElided
		r.AliasWalks += x.AliasWalks
		r.DRAMBytes += x.DRAMBytes
		addCache(&r.CapCache, &x.CapCache)
		addCache(&r.AliasCache, &x.AliasCache)
		addCache(&r.L1D, &x.L1D)
		addCache(&r.LLC, &x.LLC)
		addCache(&r.ShadowC, &x.ShadowC)
		cycles += float64(x.Cycles)
		predMiss += float64(x.Predictor.Mispredictions())
		predResolved += float64(x.Predictor.Correct + x.Predictor.Mispredictions())
	}
	insts := float64(r.MacroInsts)
	logSlow := 0.0
	for _, pr := range l.pairs {
		logSlow += math.Log(float64(pr[0].Cycles) / float64(pr[1].Cycles))
	}
	var commits, genomes float64
	for _, o := range w.ops {
		if g, ok := o.(*genomeOp); ok && g.commits > 0 {
			commits += float64(g.commits)
			genomes++
		}
	}
	kUntraced, _ := rates(untraced)
	kTraced, _ := rates(traced)
	uopsPerInst := ratio(float64(r.TotalUops()), insts)

	return map[string]float64{
		"pipeline.newsim_ms":            median(selfMS["pipeline.newsim"]),
		"cache.alloc_ms":                median(selfMS["cache.alloc"]),
		"progen.build_ms":               median(selfMS["progen.build"]),
		"workload.build_ms":             median(selfMS["workload.build"]),
		"ptrflow.analyze_ms":            median(selfMS["ptrflow.analyze"]),
		"elide.check_ms":                median(selfMS["elide.check"]),
		"elide.guard_subsumed_frac":     ratio(float64(l.subsumed), float64(l.guarded)),
		"emu.ns_per_inst":               perUnit("emu.replay"),
		"emu.share":                     ratio(perUnit("emu.replay"), perUnit("pipeline.run")),
		"decode.ns_per_inst":            perUnit("decode.replay"),
		"pipeline.ns_per_inst":          perUnit("pipeline.run"),
		"pipeline.self_ns_per_inst":     perUnit("pipeline.run") - perUnit("emu.replay"),
		"pipeline.ns_per_uop":           ratio(perUnit("pipeline.run"), uopsPerInst),
		"pipeline.protect_ns_per_inst":  perUnit("pipeline.run") - perUnit("pipeline.run.insecure"),
		"core.checks_per_inst":          ratio(float64(r.ChecksRun), insts),
		"core.elided_frac":              ratio(float64(r.ChecksElided), float64(r.ChecksRun+r.ChecksElided)),
		"core.cap_cache_miss":           r.CapCache.MissRate(),
		"core.cap_lat_per_check":        ratio(float64(r.CapMissLat), float64(r.ChecksRun)),
		"tracker.alias_walks_per_kinst": ratio(1e3*float64(r.AliasWalks), insts),
		"tracker.alias_cache_miss":      r.AliasCache.MissRate(),
		"tracker.walk_lat_per_walk":     ratio(float64(r.WalkLat), float64(r.AliasWalks)),
		"tracker.pred_mispredict":       ratio(predMiss, predResolved),
		"cache.ns_per_access":           perUnit("cache.replay"),
		"cache.l1d_miss":                r.L1D.MissRate(),
		"cache.llc_miss":                r.LLC.MissRate(),
		"cache.shadow_miss":             r.ShadowC.MissRate(),
		"cache.dram_bytes_per_inst":     ratio(float64(r.DRAMBytes), insts),
		"pipeline.uops_per_inst":        uopsPerInst,
		"pipeline.injected_per_inst":    ratio(float64(r.InjectedUops), insts),
		"pipeline.cpi":                  ratio(cycles, insts),
		"pipeline.squash_pct":           100 * ratio(float64(r.SquashCycles), cycles),
		"pipeline.sim_slowdown_pct":     100 * (math.Exp(ratio(logSlow, float64(len(l.pairs)))) - 1),
		"lockstep.ns_per_commit":        perUnit("lockstep.run_genome"),
		"lockstep.commits_per_program":  ratio(commits, genomes),
		"runtime.gc_cpu_frac":           ratio(rt.gcCPU, rt.busyCPU),
		"runtime.alloc_bytes_per_inst":  ratio(float64(rt.allocBytes), float64(rt.insts)),
		"trace.overhead_pct":            100 * (ratio(kUntraced, kTraced) - 1),
		"trace.op_self_ms":              median(selfMS["op"]),
	}
}

func addCache(dst, src *cache.Stats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
}
