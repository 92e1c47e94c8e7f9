package graph

import (
	"errors"
	"math"
)

// ErrNegativeCycle is returned by the shortest-path kernels when a
// negative weight cycle is reachable from the source (or present
// anywhere, for the all-pairs closure).
var ErrNegativeCycle = errors.New("graph: negative weight cycle")

// BellmanFordDense computes single-source shortest paths from src over the
// dense weight matrix w (w[u][v] is the u->v edge weight, +Inf absent,
// diagonal ignored — set it to +Inf). dist, parent and dirty are
// caller-owned scratch of length w.N(); on success dist[v] is the shortest
// distance (+Inf unreachable) and parent[v] the predecessor (-1 for the
// source and unreachable nodes). dirty's contents on entry and return are
// unspecified.
//
// The relaxation order — passes; source row u ascending; target column v
// ascending — matches oracle.BellmanFord on a Digraph whose adjacency was
// built in row-major order, so the dist vector is bit-identical to that
// path.
// It returns ErrNegativeCycle under the same relative tolerance.
func BellmanFordDense(w *Dense, src int, dist []float64, parent []int, dirty []bool) error {
	n := w.n
	if src < 0 || src >= n {
		return errors.New("graph: source out of range")
	}
	if len(dist) != n || len(parent) != n || len(dirty) != n {
		return errors.New("graph: scratch length mismatch")
	}
	for i := 0; i < n; i++ {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	return BellmanFordDenseFrom(w, dist, parent, dirty)
}

// BellmanFordDenseFrom is BellmanFordDense with a caller-initialized
// distance vector: every finite dist entry acts as a source pinned at
// that potential (the classic multi-source formulation the hierarchical
// solver uses to extend boundary corrections into cluster interiors).
// parent must be pre-initialized by the caller; dist entries may only
// decrease. dirty is scratch as for BellmanFordDense. The relaxation order
// and negative-cycle tolerance are those of BellmanFordDense.
//
// A pass scans only sources whose distance changed since their last scan
// (dirty). Skipping the others changes no bit: after u's scan every
// dist[v] <= dist[u] + w[u][v], and dist[v] only falls since, so a rescan
// with an unchanged dist[u] would relax nothing. For the same reason a
// pass that relaxes nothing ends the run without the negative-cycle pass,
// which could then find nothing either.
func BellmanFordDenseFrom(w *Dense, dist []float64, parent []int, dirty []bool) error {
	n := w.n
	if len(dist) != n || len(parent) != n || len(dirty) != n {
		return errors.New("graph: scratch length mismatch")
	}
	for u := range dirty {
		dirty[u] = true
	}
	for pass := 0; pass < n-1; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if !dirty[u] || math.IsInf(du, 1) {
				continue
			}
			dirty[u] = false
			row := w.data[u*n : u*n+n]
			for v, wv := range row {
				if nd := du + wv; nd < dist[v] {
					dist[v] = nd
					parent[v] = u
					dirty[v] = true
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	// One more pass: any relaxation now implies a reachable negative cycle,
	// with the same generous relative tolerance as oracle.BellmanFord.
	for u := 0; u < n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		row := w.data[u*n : u*n+n]
		for v, wv := range row {
			if du+wv < dist[v]-1e-9*(1+math.Abs(dist[v])) {
				return ErrNegativeCycle
			}
		}
	}
	return nil
}
