package oracle

import "math/rand"

// RandomDigraph returns a digraph on n nodes where each ordered pair (i,j),
// i != j, carries an edge with probability p; edge weights are drawn
// uniformly from [lo, hi). Deterministic for a given *rand.Rand state.
func RandomDigraph(rng *rand.Rand, n int, p, lo, hi float64) *Digraph {
	g := NewDigraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= p {
				continue
			}
			g.MustAddEdge(i, j, lo+(hi-lo)*rng.Float64())
		}
	}
	return g
}

// RandomStronglyConnected returns a digraph on n nodes that is guaranteed to
// be strongly connected: a random Hamiltonian cycle is installed first, then
// extra edges are added with probability p. Weights are uniform in [lo, hi).
func RandomStronglyConnected(rng *rand.Rand, n int, p, lo, hi float64) *Digraph {
	g := NewDigraph(n)
	if n == 0 {
		return g
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(perm[i], perm[(i+1)%n], lo+(hi-lo)*rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= p {
				continue
			}
			g.MustAddEdge(i, j, lo+(hi-lo)*rng.Float64())
		}
	}
	return g
}
