package round

import (
	"math"

	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// excise applies the coordinator's consistency checks to the stored
// reports and removes what fails them, filling the decision's excised
// reporters (sorted by id), the equivocators among them, the links whose
// statistics were dropped without an attributable liar, and the count of
// implicated reporters. Runs once, at solve time, under Config.Excision.
//
// Two mechanisms, in order:
//
//  1. Equivocators — origins observed with conflicting report versions
//     during collection — are excised outright: no version can be
//     trusted over another.
//  2. Per-link consistency (Lemma 6.1): estimated delays fold the
//     start offsets as d~ = d + S_from − S_to, so the offsets cancel
//     over a round trip and the sum of the two directions' reported
//     minimum estimated delays must land inside the assumption's
//     round-trip envelope (delay.RoundTrip). Additionally the link's
//     local-shift pair must stay feasible: m~ls(p,q) + m~ls(q,p) >= 0
//     for estimates derived from any real execution (the solver's
//     2-cycle), which catches lies hiding in the upper-bound terms that
//     the min-sum round trip cannot see. Both checks allow
//     ExcisionSlack. A violation implicates the link's two reporters —
//     the check cannot tell which one lied. Blame attribution: while
//     some reporter is implicated by two or more distinct links, excise
//     the most-implicated one (ties to the lowest id) and drop its
//     violations with it; leftover single-link violations excise the
//     link's statistics instead, degrading it to the no-data case
//     rather than trusting either side.
//
// A liar cross-checked by at least two honest neighbors is therefore
// caught and attributed; a lie confined to a single link costs only that
// link. What the check can never catch is a lie inside the envelope — in
// particular a uniform shift of all of a node's reported statistics,
// which is indistinguishable from the node having started earlier or
// later and corrupts only the liar's own correction (the offsets cancel
// on every path through it).
func (s *State) excise(d *Decision) {
	slack := s.cfg.ExcisionSlack
	cut := make(map[model.ProcID]bool)
	for p := 0; p < s.cfg.N; p++ {
		if pid := model.ProcID(p); s.equivocators[pid] {
			cut[pid] = true
			d.Equivocators = append(d.Equivocators, pid)
		}
	}

	type viol struct{ p, q model.ProcID }
	var violations []viol
	for _, l := range s.cfg.Links {
		if cut[l.P] || cut[l.Q] {
			continue // an equivocator's statistics are dead already
		}
		spq, sqp, ok := s.linkStats(l.P, l.Q)
		if !ok {
			continue // one side silent: nothing to cross-check
		}
		sum := spq.Min + sqp.Min
		rt := delay.RoundTrip(l.A)
		switch {
		case sum < rt.LB-slack || sum > rt.UB+slack:
			violations = append(violations, viol{p: l.P, q: l.Q})
			rLog.Debug("round-trip check violated",
				"link", [2]model.ProcID{l.P, l.Q}, "sum", sum, "envelope", rt)
		case pairSlack(l.A, spq, sqp) < -slack:
			violations = append(violations, viol{p: l.P, q: l.Q})
			rLog.Debug("local-shift pair infeasible",
				"link", [2]model.ProcID{l.P, l.Q}, "slack", pairSlack(l.A, spq, sqp))
		}
	}
	flagged := make(map[model.ProcID]bool)
	for _, v := range violations {
		flagged[v.p] = true
		flagged[v.q] = true
	}
	d.Flagged += len(flagged) + len(d.Equivocators)

	for len(violations) > 0 {
		counts := make(map[model.ProcID]int)
		for _, v := range violations {
			counts[v.p]++
			counts[v.q]++
		}
		worst, worstCount := model.ProcID(0), 0
		for p := 0; p < s.cfg.N; p++ {
			if c := counts[model.ProcID(p)]; c > worstCount {
				worst, worstCount = model.ProcID(p), c
			}
		}
		if worstCount < 2 {
			break
		}
		cut[worst] = true
		kept := violations[:0]
		for _, v := range violations {
			if v.p != worst && v.q != worst {
				kept = append(kept, v)
			}
		}
		violations = kept
	}
	for _, v := range violations {
		d.ExcisedLinks = append(d.ExcisedLinks, [2]model.ProcID{v.p, v.q})
	}

	for p := 0; p < s.cfg.N; p++ {
		if pid := model.ProcID(p); cut[pid] {
			d.Excised = append(d.Excised, pid)
			delete(s.reports, pid)
		}
	}
}

// linkStats returns both directions' reported statistics of link p–q
// (p->q as reported by q, q->p as reported by p); ok is false unless both
// sides reported the link with data.
func (s *State) linkStats(p, q model.ProcID) (spq, sqp trace.DirStats, ok bool) {
	stat := func(from, to model.ProcID) (trace.DirStats, bool) {
		for _, dr := range s.reports[to] {
			if dr.From == from {
				return dr.Stats, true
			}
		}
		return trace.DirStats{}, false
	}
	spq, okPQ := stat(p, q)
	sqp, okQP := stat(q, p)
	return spq, sqp, okPQ && okQP && spq.Count > 0 && sqp.Count > 0
}

// pairSlack is the feasibility slack of one link's local-shift 2-cycle,
// m~ls(p,q) + m~ls(q,p), with the estimates exactly as the solver forms
// them (the link's assumption intersected with the non-negative-delay
// assumption, matching core.DefaultMLSOptions). Estimates derived from a
// real execution always have non-negative cycle sums; a negative slack
// proves at least one side lied.
func pairSlack(a delay.Assumption, spq, sqp trace.DirStats) float64 {
	mPQ, mQP := a.MLS(spq, sqp)
	nPQ, nQP := delay.NoBounds().MLS(spq, sqp)
	return math.Min(mPQ, nPQ) + math.Min(mQP, nQP)
}

// feasibilityVictim picks the reporter to excise when the per-link checks
// all passed but the full system still has a negative cycle (a lie spread
// across several links, each individually inside its envelope, summing to
// an infeasibility around a longer cycle). The pick is the non-root
// reporter whose worst incident link slack is smallest — lies tighten the
// liar's own links the most — with ties to the lowest id. ok is false
// when no reporter has a cross-checked link left to score.
func (s *State) feasibilityVictim() (model.ProcID, bool) {
	worst := make(map[model.ProcID]float64)
	for _, l := range s.cfg.Links {
		spq, sqp, ok := s.linkStats(l.P, l.Q)
		if !ok {
			continue
		}
		slack := pairSlack(l.A, spq, sqp)
		for _, p := range [2]model.ProcID{l.P, l.Q} {
			if w, ok := worst[p]; !ok || slack < w {
				worst[p] = slack
			}
		}
	}
	victim, best, found := model.ProcID(0), math.Inf(1), false
	for p := 0; p < s.cfg.N; p++ {
		pid := model.ProcID(p)
		if pid == s.cfg.Root {
			continue
		}
		if w, ok := worst[pid]; ok && w < best {
			victim, best, found = pid, w, true
		}
	}
	return victim, found
}
