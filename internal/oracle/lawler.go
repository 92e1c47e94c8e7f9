package oracle

import "math"

// MaxMeanCycleBinary computes the maximum cycle mean by Lawler's binary
// search: a cycle of mean greater than lambda exists iff the graph with
// weights lambda - w(e) has a negative cycle. The answer is bracketed by
// the extreme edge weights and bisected to within tol. It serves as an
// independent cross-check and an ablation baseline for Karp's algorithm
// (O(nm log(range/tol)) vs Karp's O(nm)).
// The second return value is false when the graph is acyclic.
func MaxMeanCycleBinary(g *Digraph, tol float64) (float64, bool) {
	if tol <= 0 {
		tol = 1e-9
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	m := 0
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			lo = math.Min(lo, e.Weight)
			hi = math.Max(hi, e.Weight)
			m++
		}
	}
	if m == 0 {
		return 0, false
	}
	hasCycleAbove := func(lambda float64) bool {
		// weights lambda - w: negative cycle <=> some cycle mean > lambda.
		shifted := NewDigraph(g.N())
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Out(u) {
				shifted.MustAddEdge(u, e.To, lambda-e.Weight)
			}
		}
		return HasNegativeCycle(shifted)
	}
	// Acyclic graphs have no cycle above even the minimum weight minus one.
	if !hasCycleAbove(lo - 1) {
		return 0, false
	}
	if !hasCycleAbove(hi - tol) {
		// The maximum mean is hi itself only if a cycle of all-max edges
		// exists; bisect handles it below, but guard the degenerate
		// single-value range first.
		// lo and hi are copies of edge weights, not sums: equality is
		// exact when every edge weight coincides.
		if lo == hi { //clocklint:allow floateq

			return hi, true
		}
	}
	a, b := lo-1, hi
	for b-a > tol {
		mid := (a + b) / 2
		if hasCycleAbove(mid) {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2, true
}
