package oracle

import (
	"container/heap"
	"math"
)

// AllPairsJohnson computes all-pairs shortest paths with Johnson's
// algorithm: one Bellman-Ford pass from a virtual super-source produces
// potentials that reweight all edges non-negatively, then one Dijkstra per
// source. For sparse graphs (m << n^2) this is O(nm + n^2 log n), beating
// Floyd-Warshall's O(n^3); results are identical.
// It returns ErrNegativeCycle if the graph contains a negative cycle.
func AllPairsJohnson(g *Digraph) ([][]float64, error) {
	n := g.N()
	// Potentials via Bellman-Ford from an implicit super-source (all
	// distances start at 0, equivalent to zero-weight edges from a fresh
	// node to every vertex).
	pot := make([]float64, n)
	for pass := 0; pass < n; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			pu := pot[u]
			for _, e := range g.Out(u) {
				if nd := pu + e.Weight; nd < pot[e.To] {
					pot[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for u := 0; u < n; u++ {
		pu := pot[u]
		for _, e := range g.Out(u) {
			if pu+e.Weight < pot[e.To]-1e-9*(1+math.Abs(pot[e.To])) {
				return nil, ErrNegativeCycle
			}
		}
	}

	// Reweighted edges: w'(u,v) = w(u,v) + pot[u] - pot[v] >= 0 (up to
	// float noise, clamped).
	type arc struct {
		to int
		w  float64
	}
	adj := make([][]arc, n)
	for u := 0; u < n; u++ {
		pu := pot[u]
		for _, e := range g.Out(u) {
			w := e.Weight + pu - pot[e.To]
			if w < 0 {
				w = 0 // numerical noise only; negatives were ruled out above
			}
			adj[u] = append(adj[u], arc{to: e.To, w: w})
		}
	}

	dist := newMatrix(n, inf)
	// Dijkstra per source on the reweighted graph.
	d := make([]float64, n)
	for src := 0; src < n; src++ {
		for i := range d {
			d[i] = math.Inf(1)
		}
		d[src] = 0
		pq := &distHeap{{node: src, dist: 0}}
		for pq.Len() > 0 {
			item := heap.Pop(pq).(distItem)
			if item.dist > d[item.node] {
				continue // stale entry
			}
			for _, a := range adj[item.node] {
				if nd := item.dist + a.w; nd < d[a.to] {
					d[a.to] = nd
					heap.Push(pq, distItem{node: a.to, dist: nd})
				}
			}
		}
		for v := 0; v < n; v++ {
			if !math.IsInf(d[v], 1) {
				dist[src][v] = d[v] - pot[src] + pot[v]
			}
		}
		dist[src][src] = 0
	}
	return dist, nil
}

type distItem struct {
	node int
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
