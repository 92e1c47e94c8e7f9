package oracle

import (
	"errors"
	"math"
)

// ErrNegativeCycle is returned by shortest-path routines when a negative
// weight cycle is reachable from the source (or present anywhere, for
// all-pairs routines).
var ErrNegativeCycle = errors.New("oracle: negative weight cycle")

// ShortestPaths holds single-source shortest path results.
type ShortestPaths struct {
	Source int
	// Dist[v] is the shortest distance from Source to v; +Inf if
	// unreachable.
	Dist []float64
	// Parent[v] is the predecessor of v on a shortest path, or -1 for the
	// source and unreachable nodes.
	Parent []int
}

// BellmanFord computes single-source shortest paths from src, allowing
// negative edge weights. It returns ErrNegativeCycle if a negative cycle is
// reachable from src.
func BellmanFord(g *Digraph, src int) (*ShortestPaths, error) {
	n := g.N()
	if src < 0 || src >= n {
		return nil, errors.New("oracle: source out of range")
	}
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
	}
	dist[src] = 0

	// Standard Bellman-Ford with an early-exit when a full pass relaxes
	// nothing.
	for pass := 0; pass < n-1; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if math.IsInf(du, 1) {
				continue
			}
			for _, e := range g.Out(u) {
				if nd := du + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					parent[e.To] = u
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// One more pass: any relaxation now implies a reachable negative cycle.
	// The tolerance is relative and generous (1e-9): it exists to catch
	// genuinely infeasible inputs, not accumulated floating-point dust from
	// upstream cycle-mean computations.
	for u := 0; u < n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		for _, e := range g.Out(u) {
			if du+e.Weight < dist[e.To]-1e-9*(1+math.Abs(dist[e.To])) {
				return nil, ErrNegativeCycle
			}
		}
	}
	return &ShortestPaths{Source: src, Dist: dist, Parent: parent}, nil
}

// HasNegativeCycle reports whether g contains any negative-weight cycle.
// It runs Bellman-Ford from a virtual super-source connected to every node
// with weight 0, so cycles in every component are detected.
func HasNegativeCycle(g *Digraph) bool {
	n := g.N()
	dist := make([]float64, n) // all zero: equivalent to the super-source trick
	for pass := 0; pass < n; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			for _, e := range g.Out(u) {
				if nd := du + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			return false
		}
	}
	// Still changing after n passes over a graph with n nodes: negative cycle.
	for u := 0; u < n; u++ {
		du := dist[u]
		for _, e := range g.Out(u) {
			if du+e.Weight < dist[e.To]-1e-12 {
				return true
			}
		}
	}
	return false
}
