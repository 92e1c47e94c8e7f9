package graph

import (
	"fmt"
	"math"
)

// MeanCycle is the result of a maximum-mean-cycle computation.
type MeanCycle struct {
	// Mean is the optimal cycle mean.
	Mean float64
	// Cycle is one optimal (critical) cycle as a node sequence with the
	// first node repeated at the end, following edge direction. It may be
	// nil in degenerate numerical cases; Mean is always valid.
	Cycle []int
}

// KarpScratch holds every buffer MaxMeanCycleDense needs: the
// sign-adjusted weight matrix, the O(m^2) walk table D[k][v] (which the
// critical-cycle search reuses for the transposed weights once lambda is
// known), shortest-path potentials, and the tight-subgraph DFS state. The
// zero value is ready; buffers grow to the largest component seen and are
// then reused, so steady-state calls allocate nothing.
type KarpScratch struct {
	w      Dense     // w[u][v] = sign * w(u -> v); diagonal +Inf
	d      []float64 // (m+1) x m table, row-major
	pot    []float64
	color  []int
	parent []int
	stackV []int
	stackI []int
	cycle  []int
}

func (s *KarpScratch) reset(m int) {
	s.w.Reset(m)
	if cap(s.d) < (m+1)*m {
		s.d = make([]float64, (m+1)*m)
	}
	s.d = s.d[:(m+1)*m]
	if cap(s.pot) < m {
		s.pot = make([]float64, m)
		s.color = make([]int, m)
		s.parent = make([]int, m)
		s.stackV = make([]int, 0, m)
		s.stackI = make([]int, 0, m)
	}
	s.pot = s.pot[:m]
	s.color = s.color[:m]
	s.parent = s.parent[:m]
	s.cycle = s.cycle[:0]
}

// Reserve sizes every buffer for subsets of up to m nodes, so a sequence
// of calls with growing subsets allocates once instead of once per size.
func (s *KarpScratch) Reserve(m int) {
	s.reset(m)
}

// karpMinCols is the minimum number of columns per lane in the parallel
// walk-table update; like fwParallelMinRows it keeps the one-barrier-per-
// walk-length fan-out off matrices too small to repay it.
const karpMinCols = 96

// MaxMeanCycleDense computes the maximum mean cycle of the complete
// digraph induced by ms on the node subset comp: the edge u -> v carries
// weight ms[comp[u]][comp[v]], diagonal ignored. All off-diagonal subset
// entries must be finite — exactly what a Floyd-Warshall closure
// restricted to one strongly connected component yields — and a +Inf
// entry (a closure sum that overflowed, or a subset that is not strongly
// connected) is an error. A subset of at most one node carries no cycle:
// the zero MeanCycle. The returned cycle aliases the scratch and is valid
// until the next call with the same scratch.
//
// The walk table is updated column-parallel per walk length. Each entry is
// a min over the same set of candidate sums whatever the lane split or the
// order of sources, and min over NaN-free floats (-0 < +0) is commutative
// and associative, so the cycle mean is bit-identical for every pool size.
func MaxMeanCycleDense(ms *Dense, comp []int, s *KarpScratch, pool *Pool) (MeanCycle, error) {
	m := len(comp)
	if m <= 1 {
		// The complete-digraph view has no self-loops, so singletons (and
		// empty subsets) carry no cycle.
		return MeanCycle{}, nil
	}
	s.reset(m)

	const sign = -1.0 // run the min variant on negated weights
	// Build the sign-adjusted weights in u -> v row layout: the walk-table
	// update pushes each source's row into the next walk length.
	for u := 0; u < m; u++ {
		row := s.w.Row(u)
		src := ms.Row(comp[u])
		for v, cv := range comp {
			x := src[cv]
			if math.IsInf(x, 1) && v != u {
				return MeanCycle{}, fmt.Errorf("graph: mean-cycle entry (%d,%d) is +Inf: the closure overflowed or the subset is not strongly connected", comp[u], cv)
			}
			row[v] = sign * x
		}
		row[u] = Inf // no self-loops
	}

	// D[k][v] = min total adjusted weight of a walk with exactly k edges
	// from local node 0 to v.
	d := s.d
	for v := 0; v < m; v++ {
		d[v] = Inf
	}
	d[0] = 0
	lanes := laneCount(pool, m, karpMinCols)
	if lanes <= 1 {
		for k := 1; k <= m; k++ {
			karpRelaxCols(s, m, k, 0, m)
		}
	} else {
		bar := NewBarrier(lanes)
		pool.Run(lanes, func(part int) {
			lo, hi := shardRange(m, lanes, part)
			for k := 1; k <= m; k++ {
				karpRelaxCols(s, m, k, lo, hi)
				bar.Wait()
			}
		})
	}

	// lambda* = min over v of max over k of (D[m][v]-D[k][v])/(m-k).
	lambda := math.Inf(1)
	dm := d[m*m : m*m+m]
	for v := 0; v < m; v++ {
		if math.IsInf(dm[v], 1) {
			continue
		}
		worst := math.Inf(-1)
		for k := 0; k < m; k++ {
			dkv := d[k*m+v]
			if math.IsInf(dkv, 1) {
				continue
			}
			if r := (dm[v] - dkv) / float64(m-k); r > worst {
				worst = r
			}
		}
		if worst < lambda {
			lambda = worst
		}
	}
	if math.IsInf(lambda, 1) {
		return MeanCycle{}, nil
	}

	cycle := criticalCycleDense(s, m, comp, lambda)
	return MeanCycle{Mean: sign * lambda, Cycle: cycle}, nil
}

// karpRelaxCols computes D[k][v] for v in [lo, hi) from row k-1 in push
// form: every source u with a finite D[k-1][u] relaxes the columns through
// its weight row, one minPlus call each. A source at +Inf only offers
// +Inf candidates, which never lower a minimum started at +Inf.
func karpRelaxCols(s *KarpScratch, m, k, lo, hi int) {
	prev := s.d[(k-1)*m : k*m]
	cur := s.d[k*m+lo : k*m+hi]
	for v := range cur {
		cur[v] = Inf
	}
	for u, pu := range prev {
		if math.IsInf(pu, 1) {
			continue
		}
		minPlus(cur, s.w.Row(u)[lo:hi], pu)
	}
}

// criticalCycleDense finds a cycle whose adjusted mean equals lambda:
// shortest-path potentials under reduced weights, then a DFS for a back
// edge in the tight subgraph (every cycle of which is critical). The potential pass pulls
// over each target's incoming weights, so it reads the transpose, which
// it builds in the walk table's storage (free once lambda is known). The
// cycle slice aliases the scratch.
func criticalCycleDense(s *KarpScratch, m int, comp []int, lambda float64) []int {
	// wT[v*m+u] = w[u][v].
	wT := s.d[:m*m]
	scale := 1.0 + math.Abs(lambda)
	for u := 0; u < m; u++ {
		row := s.w.Row(u)
		for v, x := range row {
			wT[v*m+u] = x
			if u == v {
				continue
			}
			if a := math.Abs(x); a > scale {
				scale = a
			}
		}
	}
	tol := 1e-9 * scale

	// Bellman-Ford from an implicit super-source (all potentials start 0);
	// reduced weights have no negative cycles, so m passes converge.
	pot := s.pot
	for i := range pot {
		pot[i] = 0
	}
	for pass := 0; pass < m; pass++ {
		changed := false
		for v := 0; v < m; v++ {
			row := wT[v*m : v*m+m]
			pv := pot[v]
			for u, pu := range pot {
				if u == v {
					continue
				}
				if nd := pu + row[u] - lambda; nd < pv-tol {
					pv = nd
					changed = true
				}
			}
			pot[v] = pv
		}
		if !changed {
			break
		}
	}

	// Iterative DFS over the implicit tight subgraph: edge u -> v is tight
	// when its reduced weight closes the potential gap within tolerance.
	tight := func(u, v int) bool {
		return math.Abs(pot[u]+s.w.At(u, v)-lambda-pot[v]) <= 2*tol
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	for i := 0; i < m; i++ {
		s.color[i] = white
		s.parent[i] = -1
	}
	for root := 0; root < m; root++ {
		if s.color[root] != white {
			continue
		}
		s.stackV = append(s.stackV[:0], root)
		s.stackI = append(s.stackI[:0], 0)
		s.color[root] = gray
		for len(s.stackV) > 0 {
			top := len(s.stackV) - 1
			v := s.stackV[top]
			advanced := false
			for s.stackI[top] < m {
				w := s.stackI[top]
				s.stackI[top]++
				if w == v || !tight(v, w) {
					continue
				}
				switch s.color[w] {
				case white:
					s.color[w] = gray
					s.parent[w] = v
					s.stackV = append(s.stackV, w)
					s.stackI = append(s.stackI, 0)
					advanced = true
				case gray:
					// Back edge v -> w: the cycle runs w -> ... -> v -> w
					// along parent pointers.
					s.cycle = s.cycle[:0]
					for u := v; u != w; u = s.parent[u] {
						s.cycle = append(s.cycle, u)
					}
					s.cycle = append(s.cycle, w)
					// Reverse and map to ms coordinates, closing the loop.
					for i, j := 0, len(s.cycle)-1; i < j; i, j = i+1, j-1 {
						s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
					}
					for i, u := range s.cycle {
						s.cycle[i] = comp[u]
					}
					s.cycle = append(s.cycle, comp[w])
					return normalizeCycle(s.cycle)
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			s.color[v] = black
			s.stackV = s.stackV[:top]
			s.stackI = s.stackI[:top]
		}
	}
	return nil
}

// normalizeCycle removes an accidental duplicated head (w, w, ...) that the
// construction above can produce when the cycle is a self-loop, and ensures
// first == last.
func normalizeCycle(c []int) []int {
	if len(c) < 2 {
		return nil
	}
	if c[0] != c[len(c)-1] {
		c = append(c, c[0])
	}
	return c
}
