package pipeline

import "chex86/internal/workload"

// ForProfile returns cfg set up to measure workload p, and the hart count
// to build its Sim with. This is the harness's one measurement policy:
// p's setup phase runs as warmup excluded from the statistics
// (SimPoint-style), maxInsts more macro-ops are measured after it (0 =
// run to completion), maxCycles caps simulated time (0 = unbounded), and
// the program runs on p.Harts() harts. A nil p — a program with no
// profile, such as a loaded object image — has no warmup and one hart.
func ForProfile(cfg Config, p *workload.Profile, maxInsts, maxCycles uint64) (Config, int) {
	cfg.WarmupInsts = 0
	harts := 1
	if p != nil {
		cfg.WarmupInsts, harts = p.SetupInsts(), p.Harts()
	}
	cfg.MaxInsts = maxInsts
	if maxInsts > 0 {
		cfg.MaxInsts += cfg.WarmupInsts
	}
	cfg.MaxCycles = maxCycles
	return cfg, harts
}
