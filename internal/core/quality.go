package core

import (
	"math"

	"clocksync/internal/obs"
)

// QualityReport carries the paper's figures of merit for one solved
// instance: how tight the achieved corrected-clock discrepancy bound is
// against the A_max optimum of Theorem 4.6.
type QualityReport struct {
	// Achieved is the realized worst-pair bound max_{p,q} PairBound(p,q)
	// over all pairs inside sync components. By instance optimality it
	// equals Optimal up to floating-point noise on every fault-free solve.
	Achieved float64 `json:"achieved"`
	// Optimal is the largest finite component A_max — the precision no
	// correction function can beat (Theorem 4.4).
	Optimal float64 `json:"optimal"`
	// Ratio is Achieved/Optimal (1 when both are zero, e.g. singleton
	// systems). Fault-free solves report 1.0 ± ε; a ratio meaningfully
	// above 1 indicates a corrupted result.
	Ratio float64 `json:"ratio"`
	// Pairs counts the processor pairs measured for Achieved.
	Pairs int `json:"pairs"`
}

// pairBoundRaw is PairBound without range checks, for in-component pairs.
func pairBoundRaw(res *Result, p, q int) float64 {
	fwd := res.MS[p][q] + res.Corrections[q] - res.Corrections[p]
	rev := res.MS[q][p] + res.Corrections[p] - res.Corrections[q]
	return math.Max(fwd, rev)
}

// certifiedReport is the degenerate quality report for results without a
// materialized m~s matrix (large sparse solves): no pair sweep is
// possible, so both figures report the largest certified component
// precision and Pairs stays zero.
func certifiedReport(res *Result) QualityReport {
	rep := QualityReport{Ratio: 1}
	for ci := range res.Components {
		if a := res.ComponentPrecision[ci]; !math.IsInf(a, 1) && a > rep.Optimal {
			rep.Optimal = a
		}
	}
	rep.Achieved = rep.Optimal
	return rep
}

// AssessQuality computes the quality report for a solved instance without
// publishing anything: the worst pair bound across all in-component
// pairs, the largest finite component A_max, and their ratio. When the
// result carries no m~s matrix (large sparse solves) it degenerates to
// the certified component precision with Pairs == 0.
func AssessQuality(res *Result) QualityReport {
	if res.MS == nil {
		return certifiedReport(res)
	}
	rep := QualityReport{}
	for ci, comp := range res.Components {
		a := res.ComponentPrecision[ci]
		if math.IsInf(a, 1) {
			continue
		}
		if a > rep.Optimal {
			rep.Optimal = a
		}
		for i, p := range comp {
			for _, q := range comp[i+1:] {
				if b := pairBoundRaw(res, p, q); b > rep.Achieved {
					rep.Achieved = b
				}
				rep.Pairs++
			}
		}
	}
	rep.Ratio = qualityRatio(rep.Achieved, rep.Optimal)
	return rep
}

// qualityRatio is achieved/optimal with the degenerate zero-precision
// case (singletons, exact clocks) reporting a perfect 1.
func qualityRatio(achieved, optimal float64) float64 {
	if optimal == 0 {
		if achieved == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return achieved / optimal
}

// PublishQuality computes the report for a solved instance and records it
// into reg (obs.Default when nil):
//
//   - gauges quality.precision.{achieved,optimal,ratio};
//   - histogram quality.gradient.pair — the per-neighbor gradient
//     precision (the Kuhn–Lenzen–Locher–Oshman metric): PairBound over
//     the declared links when pairs is non-nil, over all in-component
//     pairs otherwise;
//   - histogram quality.link.slack — per-link slack of the m~s envelope,
//     2·A_max − (m~s(p,q) + m~s(q,p)) ≥ 0, zero exactly on the critical
//     cycle's 2-cycles (links with no room before they would bind the
//     optimum).
//
// When label is non-empty every metric carries a session="label" pair.
// pairs entries outside a sync component (or out of range) are skipped.
func PublishQuality(res *Result, pairs [][2]int, label string, reg *obs.Registry) QualityReport {
	if reg == nil {
		reg = obs.Default
	}
	name := func(base string) string {
		if label == "" {
			return base
		}
		return obs.Labeled(base, "session", label)
	}
	if res.MS == nil {
		rep := certifiedReport(res)
		reg.Gauge(name("quality.precision.achieved")).Set(rep.Achieved)
		reg.Gauge(name("quality.precision.optimal")).Set(rep.Optimal)
		reg.Gauge(name("quality.precision.ratio")).Set(rep.Ratio)
		return rep
	}
	hGrad := reg.Histogram(name("quality.gradient.pair"), obs.DefTimeBuckets)
	hSlack := reg.Histogram(name("quality.link.slack"), obs.DefTimeBuckets)

	n := len(res.Corrections)
	compPrec := make([]float64, n)
	for i := range compPrec {
		compPrec[i] = math.Inf(1)
	}
	rep := QualityReport{}
	for ci, comp := range res.Components {
		a := res.ComponentPrecision[ci]
		for _, p := range comp {
			compPrec[p] = a
		}
		if math.IsInf(a, 1) {
			continue
		}
		if a > rep.Optimal {
			rep.Optimal = a
		}
		for i, p := range comp {
			for _, q := range comp[i+1:] {
				b := pairBoundRaw(res, p, q)
				if b > rep.Achieved {
					rep.Achieved = b
				}
				rep.Pairs++
				if pairs == nil {
					hGrad.Observe(b)
					hSlack.Observe(2*a - (res.MS[p][q] + res.MS[q][p]))
				}
			}
		}
	}
	for _, pr := range pairs {
		p, q := pr[0], pr[1]
		if p < 0 || q < 0 || p >= n || q >= n || p == q {
			continue
		}
		a := compPrec[p]
		if math.IsInf(a, 1) || math.IsInf(res.MS[p][q], 1) || math.IsInf(res.MS[q][p], 1) {
			continue // cross-component or unconstrained pair
		}
		hGrad.Observe(pairBoundRaw(res, p, q))
		hSlack.Observe(2*a - (res.MS[p][q] + res.MS[q][p]))
	}
	rep.Ratio = qualityRatio(rep.Achieved, rep.Optimal)
	reg.Gauge(name("quality.precision.achieved")).Set(rep.Achieved)
	reg.Gauge(name("quality.precision.optimal")).Set(rep.Optimal)
	reg.Gauge(name("quality.precision.ratio")).Set(rep.Ratio)
	return rep
}

// publishQuality publishes quality telemetry after a solve. With a
// materialized (block-diagonal) m~s it defers to PublishQuality,
// producing the full report. Without one it publishes the certified
// figures instead — achieved is the largest certified component bound
// (λ̂ for hierarchical components, the exact A_max otherwise), optimal is
// the largest certified lower bound λ_B — plus a
// quality.precision.cluster histogram of the hierarchical solver's
// per-cluster intra-cluster bounds, so cluster-level precision stays
// observable even when no global pair sweep is affordable.
func (s *Synchronizer) publishQuality(res *Result, pairs [][2]int, label string) {
	if res.MS != nil {
		PublishQuality(res, pairs, label, nil)
		return
	}
	reg := obs.Default
	name := func(base string) string {
		if label == "" {
			return base
		}
		return obs.Labeled(base, "session", label)
	}
	achieved, optimal := 0.0, 0.0
	for ci := range res.Components {
		a := res.ComponentPrecision[ci]
		if math.IsInf(a, 1) {
			continue
		}
		if a > achieved {
			achieved = a
		}
		if ci < len(s.lowerB) && s.lowerB[ci] > optimal {
			optimal = s.lowerB[ci]
		}
	}
	reg.Gauge(name("quality.precision.achieved")).Set(achieved)
	reg.Gauge(name("quality.precision.optimal")).Set(optimal)
	reg.Gauge(name("quality.precision.ratio")).Set(qualityRatio(achieved, optimal))
	h := reg.Histogram(name("quality.precision.cluster"), obs.DefTimeBuckets)
	for _, bounds := range s.hierQ {
		for _, b := range bounds {
			h.Observe(b)
		}
	}
}

// linkPairs extracts the unordered endpoint pairs of a link set for
// PublishQuality's gradient histogram.
func linkPairs(links []Link) [][2]int {
	if len(links) == 0 {
		return nil
	}
	pairs := make([][2]int, len(links))
	for i, l := range links {
		pairs[i] = [2]int{int(l.P), int(l.Q)}
	}
	return pairs
}
