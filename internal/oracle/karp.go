package oracle

import "math"

// MeanCycle is the result of a maximum-mean-cycle computation.
type MeanCycle struct {
	// Mean is the optimal cycle mean.
	Mean float64
	// Cycle is one optimal (critical) cycle as a node sequence with the
	// first node repeated at the end, following edge direction. It may be
	// nil in degenerate numerical cases; Mean is always valid.
	Cycle []int
}

// MaxMeanCycle computes the maximum mean weight of a directed cycle in g
// using Karp's characterization, applied per strongly connected component
// (O(n·m) total). The second return value is false when g is acyclic.
func MaxMeanCycle(g *Digraph) (MeanCycle, bool) {
	best := MeanCycle{Mean: math.Inf(-1)}
	found := false
	for _, comp := range SCC(g) {
		mc, ok := karpComponent(g, comp)
		if !ok {
			continue
		}
		if !found || mc.Mean > best.Mean {
			best = mc
		}
		found = true
	}
	return best, found
}

// karpComponent runs Karp's maximum-mean variant on one SCC.
func karpComponent(g *Digraph, comp []int) (MeanCycle, bool) {
	m := len(comp)
	if m == 0 {
		return MeanCycle{}, false
	}
	inComp := make(map[int]int, m) // node -> local index
	for i, v := range comp {
		inComp[v] = i
	}

	// Collect intra-component edges, translated to local indices.
	var edges []Edge
	for _, v := range comp {
		lv := inComp[v]
		for _, e := range g.Out(v) {
			if lw, ok := inComp[e.To]; ok {
				edges = append(edges, Edge{From: lv, To: lw, Weight: e.Weight})
			}
		}
	}
	return karpLocal(edges, m, comp)
}

// karpLocal runs Karp's algorithm on one SCC given its edges in local
// indices (comp maps local back to graph ids for the reported cycle).
func karpLocal(edges []Edge, m int, comp []int) (MeanCycle, bool) {
	if m == 0 {
		return MeanCycle{}, false
	}
	if len(edges) == 0 {
		return MeanCycle{}, false
	}
	if m == 1 {
		// Only self-loops are possible here.
		best, has := 0.0, false
		for _, e := range edges {
			if !has || e.Weight > best {
				best = e.Weight
				has = true
			}
		}
		if !has {
			return MeanCycle{}, false
		}
		return MeanCycle{Mean: best, Cycle: []int{comp[0], comp[0]}}, true
	}

	const sign = -1.0 // run the min variant on negated weights

	// D[k][v] = min total weight (in sign-adjusted space) of a walk with
	// exactly k edges from the source (local node 0) to v.
	unset := math.Inf(1)
	D := make([][]float64, m+1)
	for k := 0; k <= m; k++ {
		D[k] = make([]float64, m)
		for v := 0; v < m; v++ {
			D[k][v] = unset
		}
	}
	D[0][0] = 0
	for k := 1; k <= m; k++ {
		prev, cur := D[k-1], D[k]
		for _, e := range edges {
			if math.IsInf(prev[e.From], 1) {
				continue
			}
			if nd := prev[e.From] + sign*e.Weight; nd < cur[e.To] {
				cur[e.To] = nd
			}
		}
	}

	// lambda* = min over v of max over k of (D[m][v]-D[k][v])/(m-k).
	lambda := math.Inf(1)
	for v := 0; v < m; v++ {
		if math.IsInf(D[m][v], 1) {
			continue
		}
		worst := math.Inf(-1)
		for k := 0; k < m; k++ {
			if math.IsInf(D[k][v], 1) {
				continue
			}
			if r := (D[m][v] - D[k][v]) / float64(m-k); r > worst {
				worst = r
			}
		}
		if worst < lambda {
			lambda = worst
		}
	}
	if math.IsInf(lambda, 1) {
		return MeanCycle{}, false
	}

	cycle := criticalCycle(edges, m, comp, sign, lambda)
	return MeanCycle{Mean: sign * lambda, Cycle: cycle}, true
}

// criticalCycle finds a cycle whose mean (in sign-adjusted space) equals
// lambda: subtract lambda from every adjusted weight, compute shortest-path
// potentials, and search for a cycle among tight edges. Every cycle of the
// tight subgraph is critical.
func criticalCycle(edges []Edge, m int, comp []int, sign, lambda float64) []int {
	scale := 1.0 + math.Abs(lambda)
	for _, e := range edges {
		if a := math.Abs(e.Weight); a > scale {
			scale = a
		}
	}
	tol := 1e-9 * scale

	// Bellman-Ford from an implicit super-source (all potentials start 0);
	// reduced weights have no negative cycles, so m passes converge.
	pot := make([]float64, m)
	for pass := 0; pass < m; pass++ {
		changed := false
		for _, e := range edges {
			w := sign*e.Weight - lambda
			if nd := pot[e.From] + w; nd < pot[e.To]-tol {
				pot[e.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Tight subgraph adjacency.
	tight := make([][]int, m)
	for _, e := range edges {
		w := sign*e.Weight - lambda
		if math.Abs(pot[e.From]+w-pot[e.To]) <= 2*tol {
			tight[e.From] = append(tight[e.From], e.To)
		}
	}

	// Iterative DFS looking for a back edge.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, m)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct{ v, i int }
	for s := 0; s < m; s++ {
		if color[s] != white {
			continue
		}
		stack := []frame{{v: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(tight[f.v]) {
				w := tight[f.v][f.i]
				f.i++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case gray:
					// Found a back edge f.v -> w; the cycle is
					// w -> ... -> f.v -> w along parent pointers.
					rev := []int{f.v}
					for u := f.v; u != w; {
						u = parent[u]
						rev = append(rev, u)
					}
					cyc := make([]int, 0, len(rev)+1)
					for i := len(rev) - 1; i >= 0; i-- {
						cyc = append(cyc, comp[rev[i]])
					}
					cyc = append(cyc, comp[w])
					return normalizeCycle(cyc)
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
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
