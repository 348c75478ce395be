package pipeline

import (
	"chex86/internal/isa"
)

// resetSlots restores full fetch bandwidth for the current fetch cycle.
func (c *coreCtx) resetSlots() {
	c.macroLeft = c.cfg.FetchWidth
	c.uopLeft = c.cfg.IssueWidth
}

// advanceFetch moves the front-end to the next fetch cycle.
func (c *coreCtx) advanceFetch() {
	c.fetchAt++
	c.resetSlots()
}

// beginMacro charges fetch timing for one macro-op: pending redirect
// stalls, I-cache line transitions, and fetch-slot consumption (macroCost
// slots; MSROM-sourced expansions consume the whole fetch cycle).
func (c *coreCtx) beginMacro(cfg *Config, addr uint64, macroCost int, msrom bool) {
	if c.blockedUntil > c.fetchAt {
		c.fetchAt = c.blockedUntil
		c.resetSlots()
	}
	line := addr &^ (cfg.LineSize - 1)
	if line != c.curLine {
		lat := c.hier.AccessInstAt(addr, c.fetchAt)
		c.curLine = line
		if lat > cfg.L1Latency {
			c.fetchAt += lat - cfg.L1Latency
			c.resetSlots()
		}
	}
	if c.macroLeft < macroCost || c.uopLeft <= 0 {
		c.advanceFetch()
	}
	c.macroLeft -= macroCost
	if c.macroLeft < 0 || msrom {
		c.macroLeft = 0
	}
}

// redirect schedules a front-end redirect (branch misprediction or P0AN
// alias-misprediction flush): fetch resumes after the resolving micro-op
// completes plus the pipeline refill penalty.
func (c *coreCtx) redirect(cfg *Config, resolveCycle uint64) {
	target := resolveCycle + cfg.RedirectCost
	if target > c.blockedUntil {
		// Squash accounting (Figure 8 bottom): count the pipeline-refill
		// window. Wrong-path fetch that overlaps backend-bound stalls (the
		// front-end would have been idle anyway) is not counted, so the
		// metric tracks recovery work as the paper's does.
		start := c.fetchAt
		if resolveCycle > cfg.FrontendDepth && resolveCycle-cfg.FrontendDepth > start {
			start = resolveCycle - cfg.FrontendDepth
		}
		if target > start {
			c.squashCycles += target - start
		}
		c.blockedUntil = target
	}
	c.redirects++
}

// schedule runs one macro-op's planned micro-ops through the one-pass
// out-of-order timing model, returning the completion cycle of the
// macro-op's branch micro-op (0 if none) and of any flush-requesting load
// (with its extra walk latency).
func (c *coreCtx) schedule(cfg *Config, plans []uopPlan, trace func(UopTrace), rip uint64) (brDone, flushDone, flushLat uint64) {
	for i := range plans {
		p := &plans[i]
		u := &p.u

		// Fetch slot for this micro-op.
		if c.uopLeft <= 0 {
			c.advanceFetch()
		}
		want := c.fetchAt
		if gated := c.fetchRing.allocate(want); gated > want {
			// The fetch buffer is full: fetch stalls until older micro-ops
			// drain (bounded front-end/back-end decoupling).
			c.fetchAt = gated
			c.resetSlots()
		}
		fetch := c.fetchAt
		c.uopLeft--

		// Dispatch into the ROB (and IQ / LQ / SQ).
		dispatch := fetch + cfg.FrontendDepth
		dispatch = c.rob.allocate(dispatch)

		var done uint64
		if u.ZeroIdiom {
			// Squashed at the instruction queue before dispatch to the
			// reservation stations: never issues.
			done = dispatch
		} else {
			dispatch = c.iq.admit(dispatch)
			isLoad := u.Type == isa.ULoad
			isStore := u.Type == isa.UStore
			if isLoad {
				dispatch = c.lq.allocate(dispatch)
			}
			if isStore {
				dispatch = c.sq.allocate(dispatch)
			}

			// Wakeup: all register sources ready.
			ready := dispatch + 1
			for _, r := range [4]isa.Reg{u.Src1, u.Src2, u.Mem.Base, u.Mem.Index} {
				if r.Valid() && r < isa.NumRegs && c.regReady[r] > ready {
					ready = c.regReady[r]
				}
			}

			issue := c.issueBW.reserve(ready)
			issue = c.fuBW[u.FU()].reserve(issue)
			c.iq.add(issue)

			switch {
			case isLoad:
				lat := uint64(0)
				if _, hit := c.tlb.Lookup(u.EA); !hit {
					lat += cfg.TLBWalkCost
				}
				lat += c.hier.AccessDataAt(u.EA, false, issue)
				done = issue + lat + p.extraLat
			case isStore:
				done = issue + 1 + p.extraLat
			default:
				done = issue + uint64(u.Latency()) + p.extraLat
			}

			if u.WritesReg() && u.Dst < isa.NumRegs {
				c.regReady[u.Dst] = done
			}
			switch u.Type {
			case isa.UBranch, isa.UJump:
				brDone = done
			}
			if p.flush {
				flushDone = done
				flushLat = p.flushLat
			}

			// In-order commit.
			commit := maxU64(done+1, c.lastCommit)
			commit = c.commitBW.reserve(commit)
			c.lastCommit = commit
			c.rob.release(commit)
			c.fetchRing.release(commit)
			if isLoad {
				c.lq.release(commit)
			}
			if isStore {
				c.sq.release(commit)
				// The store drains to the D-cache from the store queue at
				// commit (write-buffer; does not stall retirement).
				c.tlb.Lookup(u.EA)
				c.hier.AccessDataAt(u.EA, true, commit)
			}
			if trace != nil {
				trace(UopTrace{Core: c.id, RIP: rip, Uop: u.String(),
					Fetch: fetch, Dispatch: dispatch, Issue: issue, Done: done, Commit: commit})
			}
			continue
		}

		// Zero-idiom commit path.
		commit := maxU64(done+1, c.lastCommit)
		commit = c.commitBW.reserve(commit)
		c.lastCommit = commit
		c.rob.release(commit)
		c.fetchRing.release(commit)
		if trace != nil {
			trace(UopTrace{Core: c.id, RIP: rip, Uop: u.String() + " (zero-idiom)",
				Fetch: fetch, Dispatch: dispatch, Done: done, Commit: commit})
		}
	}
	return brDone, flushDone, flushLat
}
