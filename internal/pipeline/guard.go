package pipeline

// GuardKey identifies one hoisted block guard at runtime: the anchor
// address (the leader instruction of the dominating block the guard was
// hoisted to) and the calling context the claim holds in (CtxAny for
// ⊤-layer guards). The runtime probes the exact live context first,
// then the ⊤ entry — the same fail-closed order as elision lookups.
type GuardKey struct {
	Addr uint64
	Ctx  CallCtx
}

// GuardMap is the pipeline-consumable form of a verified guard report
// (internal/elide re-verifies every claim before building one). Guards
// maps each anchor to the number of capability checks its fused claim
// covers; Covered marks the elision keys whose suppressed check is
// attributed to a guard rather than to a standalone per-site proof.
//
// The checker only admits covered sites that are in the verified
// elision map, so guard hoisting never changes which checks execute.
// With HoistGuards on, each committed anchor materializes one timed
// UGuardCheck μop — the fused interval check standing in for every
// subsumed per-site capability check the elision map already removed
// from the stream — so the hoisting trade (one guard μop per block
// entry against many elided checks) is measured by the timing model,
// not merely accounted (see DESIGN.md §16/§17). The security contract
// is unchanged: the guard μop is functionally inert (the per-site
// functional validation decisions come from the elision map alone), so
// violation reports are byte-identical with guards on or off.
type GuardMap struct {
	Guards  map[GuardKey]int
	Covered map[ElideKey]bool
}

// GuardStats aggregates the guard-hoisting counters across harts. The
// counters live beside Result rather than inside it: they are host-side
// attribution detail, and the guards-on/off differential (TestGuardDiff)
// pins the exact relation — identical violations and check counts, with
// the guard μops the only stream difference.
type GuardStats struct {
	// GuardUops counts committed guard-anchor activations: one per
	// commit of an anchor macro-op whose (address, live context) matches
	// a verified guard.
	GuardUops uint64

	// SubsumedChecks counts elided capability checks attributed to a
	// hoisted guard: elision-map hits whose key is in the guard map's
	// covered set.
	SubsumedChecks uint64
}

// SetGuardMap installs the verified guard map. It only takes effect
// when Cfg.HoistGuards is also set (which itself requires ElideChecks),
// so an installed map with the knob off is inert — the fail-closed
// default.
func (s *Sim) SetGuardMap(m GuardMap) { s.guards = m }

// GuardStats returns the guard-hoisting attribution counters summed
// over all harts, windowed past the warmup boundary exactly like the
// Result check counters — so SubsumedChecks is always comparable to
// (and never exceeds) Result.ChecksElided over the same window.
func (s *Sim) GuardStats() GuardStats {
	g := s.rawGuardStats()
	g.GuardUops -= minU64(s.warmGuards.GuardUops, g.GuardUops)
	g.SubsumedChecks -= minU64(s.warmGuards.SubsumedChecks, g.SubsumedChecks)
	return g
}

// rawGuardStats sums the per-hart guard counters over the whole run.
func (s *Sim) rawGuardStats() GuardStats {
	var g GuardStats
	for i := range s.cores {
		g.GuardUops += s.cores[i].guardUops
		g.SubsumedChecks += s.cores[i].subsumedChecks
	}
	return g
}
