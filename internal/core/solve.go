package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
)

// Solve-path thresholds. The input format is chosen from the input, never
// from an option: row matrices and small systems are solved from a dense
// n×n source, large systems from CSR. SolverAuto closes every sync
// component exactly up to autoExactCompMax nodes and hands larger ones to
// the hierarchical solver.
const (
	// defaultClusterSize is the hierarchical solver's target cluster size
	// when Options.ClusterSize is zero.
	defaultClusterSize = 256
	// denseSourceMaxN: SyncSystem reduces systems up to this size into a
	// dense matrix and larger ones directly into CSR.
	denseSourceMaxN = 512
	// autoExactCompMax: SolverAuto closes components up to this size
	// exactly (a k×k dense closure, at most 32 MiB) and uses the
	// hierarchical solver beyond.
	autoExactCompMax = 2048
	// msMaterializeMax: largest n for which a CSR source materializes the
	// block-diagonal m~s matrix into the Result (8 MiB); beyond it
	// Result.MS is nil. A dense source always materializes it: its n×n
	// matrix exists anyway.
	msMaterializeMax = 1024
)

// clusterSizeOrDefault resolves Options.ClusterSize.
func (o *Options) clusterSizeOrDefault() int {
	if o.ClusterSize > 0 {
		return o.ClusterSize
	}
	return defaultClusterSize
}

// hierThreshold returns the component size above which a component is
// handed to the hierarchical solver instead of being closed exactly.
func hierThreshold(opts *Options) int {
	switch opts.Solver {
	case SolverHierarchical:
		return opts.clusterSizeOrDefault()
	case SolverExact:
		return math.MaxInt
	default: // SolverAuto
		return max(autoExactCompMax, opts.clusterSizeOrDefault())
	}
}

// start returns the instant the first observed phase starts from: now
// when an observer is attached, the zero time (and no clock read)
// otherwise.
func (o *Options) start() time.Time {
	if o.Observer == nil {
		return time.Time{}
	}
	return o.clock().Now()
}

// Observer phases of the solve, in pipeline order.
const (
	phaseEstimate = iota
	phaseKarp
	phaseCorrections
)

var phaseNames = [...]string{"estimate", "karp_amax", "corrections"}

// phaseTimer attributes the serial component loop's time to the
// observer's phases: each lap accrues the time since the previous one.
// With a single multi-node component every phase runs once, so each is
// reported as it ends and a tracer that places spans at report time lays
// them out back to back; otherwise the phases interleave across
// components and are accrued and reported once by flush. A nil timer (no
// observer attached) makes every method a no-op.
type phaseTimer struct {
	clk      obs.Clock
	observer obs.PhaseObserver
	live     bool
	last     time.Time
	sums     [len(phaseNames)]time.Duration
}

// lap accrues the time since the previous lap to phase.
func (t *phaseTimer) lap(phase int) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	d := now.Sub(t.last)
	t.last = now
	if t.live {
		t.observer.ObservePhase(phaseNames[phase], d.Seconds())
		return
	}
	t.sums[phase] += d
}

// flush reports the accrued phases, charging any time since the last lap
// (component bookkeeping, singleton components) to the estimate phase.
func (t *phaseTimer) flush() {
	if t == nil || t.live {
		return
	}
	t.lap(phaseEstimate)
	for phase, d := range t.sums {
		t.observer.ObservePhase(phaseNames[phase], d.Seconds())
	}
}

// solve runs GLOBAL ESTIMATES and SHIFTS component by component. SHIFTS
// is defined per sync component (Theorem 4.6), and no shortest path
// between two nodes of one component leaves it (Theorem 5.5), so closing
// each component on its own is the paper's algorithm: take the SCCs of
// the m~ls adjacency, then close each component locally and run Karp and
// the corrections on it, or, above the solver's threshold, hand it to the
// hierarchical solver.
//
// The raw m~ls comes from g when it is non-nil (CSR source) and from a.ms
// otherwise (dense source: n×n, zero diagonal, validated). A dense source
// is read directly and, when one component spans the system, closed in
// place; the materialized m~s is block-diagonal either way, with
// cross-component entries +Inf. mark is the start of the "estimate"
// phase.
func (s *Synchronizer) solve(a *resultArena, g *graph.CSR, opts Options, mark time.Time) (*Result, error) {
	n := len(a.corr)
	if opts.Root < 0 || (n > 0 && opts.Root >= n) {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", opts.Root, n)
	}
	lanes := opts.Parallelism
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	pool := graph.AcquirePool(lanes)
	defer graph.ReleasePool(pool)

	// Sync components from the raw m~ls: mutual reachability is
	// closure-invariant, so this is also the partition of m~s.
	var nc int
	if g == nil {
		nc = graph.SCCDense(&a.ms, &s.scc)
	} else {
		nc = graph.SCCCSR(g, &s.scc)
	}
	s.layoutComponents(a, n, nc)
	s.localIdx = grow(s.localIdx, n)
	thresh := hierThreshold(&opts)
	maxComp, maxExact := 0, 0
	for _, comp := range a.comps {
		k := len(comp)
		maxComp = max(maxComp, k)
		if k <= thresh {
			maxExact = max(maxExact, k)
		}
		for i, v := range comp {
			s.localIdx[v] = i
		}
	}
	hier := maxComp > thresh
	if hier {
		// The hierarchical solver partitions over adjacency lists and the
		// undirected neighborhood; build both once, outside any lane
		// fan-out.
		if g == nil {
			s.csr.FromDense(&a.ms)
			g = &s.csr
		}
		g.TransposeInto(&s.csrT)
	}
	withMS := !hier && (g == nil || n <= msMaterializeMax)
	if withMS && g != nil {
		a.ms.Reset(n)
		a.ms.Fill(graph.Inf)
		a.ms.FillDiag(0)
	}
	inPlace := g == nil && nc == 1

	// Size the per-component scratch once per solve, never once per
	// component: a dense source reserves n (its input is n×n already), a
	// CSR source never more than its largest exact component.
	kitSize := maxExact
	if g == nil {
		kitSize = n
	}
	parallel := pool != nil && nc > 1 && opts.Observer == nil
	kits := 1
	if parallel {
		kits = min(pool.Lanes(), nc)
	}
	for i := 0; i < kits; i++ {
		s.kit(i).reserve(kitSize, !inPlace, opts.Centered)
	}
	// Pre-grow the shared identity permutation to the largest size any
	// component solve can request: ident() is then a read-only slice
	// below the lane fan-out.
	s.ident(maxComp)
	s.lowerB = grow(s.lowerB, nc)
	if cap(s.hierQ) < nc {
		s.hierQ = make([][]float64, nc)
	}
	s.hierQ = s.hierQ[:nc]
	clear(s.hierQ)

	res := &a.res
	res.Corrections = a.corr
	res.Components = a.comps
	res.ComponentPrecision = a.prec
	if withMS {
		a.msRows = a.ms.RowsInto(a.msRows)
		res.MS = a.msRows
	}

	if parallel {
		if err := s.solveParallel(a, g, pool, kits, opts, thresh, withMS, inPlace); err != nil {
			return nil, err
		}
	} else {
		// Serial over components with lane-parallel kernels; the observer's
		// per-phase attribution needs this order.
		var t *phaseTimer
		if opts.Observer != nil {
			t = &phaseTimer{clk: opts.clock(), observer: opts.Observer, live: nc == 1 && n > 1, last: mark}
		}
		for ci := range a.comps {
			cycle, err := s.solveComponent(s.kits[0], g, a, ci, opts, thresh, withMS, inPlace, pool, t)
			if err != nil {
				return nil, err
			}
			if nc == 1 && cycle != nil {
				a.cycle = append(a.cycle[:0], cycle...)
				res.CriticalCycle = a.cycle
			}
		}
		t.flush()
	}
	res.Precision = math.Inf(1)
	if nc == 1 {
		res.Precision = a.prec[0]
	}
	return res, nil
}

// solveParallel fans the components across lanes with per-lane kits and
// serial inner kernels: disconnected components are independent, outputs
// are disjoint per component, so results are bit-identical to the serial
// order, and the lowest-index error wins deterministically.
func (s *Synchronizer) solveParallel(a *resultArena, g *graph.CSR, pool *graph.Pool, lanes int, opts Options, thresh int, withMS, inPlace bool) error {
	nc := len(a.comps)
	pool.Run(lanes, func(part int) {
		kit := s.kits[part]
		for ci := part; ci < nc; ci += lanes {
			_, s.compErr[ci] = s.solveComponent(kit, g, a, ci, opts, thresh, withMS, inPlace, nil, nil)
		}
	})
	for ci := 0; ci < nc; ci++ {
		if s.compErr[ci] != nil {
			return s.compErr[ci]
		}
	}
	return nil
}

// solveComponent solves sync component ci: exactly (a local dense closure,
// or the source matrix itself when inPlace) when it fits the threshold,
// hierarchically otherwise. It fills a.prec[ci], s.lowerB[ci] and the
// component's correction slots; the returned critical cycle (in global
// processor ids) aliases kit scratch and is only produced on the exact
// path.
func (s *Synchronizer) solveComponent(kit *compKit, g *graph.CSR, a *resultArena, ci int, opts Options, thresh int, withMS, inPlace bool, pool *graph.Pool, t *phaseTimer) ([]int, error) {
	comp := a.comps[ci]
	k := len(comp)
	if k > thresh {
		return nil, s.solveHierComponent(g, a, ci, comp, opts, pool, t)
	}
	ms := &a.ms
	if !inPlace {
		ms = &kit.ms
		s.extract(ms, a, g, comp)
	}
	if k == 1 {
		a.corr[comp[0]] = 0
		a.prec[ci] = 0
		s.lowerB[ci] = 0
		return nil, nil
	}

	// GLOBAL ESTIMATES on the component. Floyd-Warshall visits the
	// component's pivots in the same ascending order as a whole-matrix
	// closure would, and pivots outside the component never shorten a
	// path inside it, so the local closure is the global one bit for bit
	// on this block.
	if err := graph.FloydWarshallDense(ms, pool); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if withMS && !inPlace {
		for li, p := range comp {
			src := ms.Row(li)
			dst := a.ms.Row(p)
			for lj, q := range comp {
				dst[q] = src[lj]
			}
		}
	}

	t.lap(phaseEstimate)
	mc, err := graph.MaxMeanCycleDense(ms, s.ident(k), &kit.karp, pool)
	if err != nil {
		return nil, err
	}
	aMax, cycle := mc.Mean, mc.Cycle
	a.prec[ci] = aMax
	s.lowerB[ci] = aMax
	t.lap(phaseKarp)
	if err := s.componentCorrections(kit, ms, comp, aMax, opts, a.corr, pool); err != nil {
		return nil, err
	}
	t.lap(phaseCorrections)
	// The cycle came back in local indices; translate in place.
	for i, v := range cycle {
		cycle[i] = comp[v]
	}
	return cycle, nil
}

// extract writes the component-local k×k m~ls submatrix of comp into dst.
// On a dense source it also resets the component's rows of a.ms to the
// block-diagonal form (+Inf off the component, zero diagonal) that the
// closure is later written back into; every lane touches only its own
// component's rows, so concurrent extractions never race.
func (s *Synchronizer) extract(dst *graph.Dense, a *resultArena, g *graph.CSR, comp []int) {
	dst.Reset(len(comp))
	if g == nil {
		for li, p := range comp {
			src := a.ms.Row(p)
			row := dst.Row(li)
			for lj, q := range comp {
				row[lj] = src[q]
			}
			for q := range src {
				src[q] = graph.Inf
			}
			src[p] = 0
		}
		return
	}
	dst.Fill(graph.Inf)
	dst.FillDiag(0)
	c0 := s.scc.CompOf[comp[0]]
	for li, p := range comp {
		row := dst.Row(li)
		cols, wgts := g.Row(p)
		for e, q := range cols {
			if s.scc.CompOf[q] == c0 {
				row[s.localIdx[q]] = wgts[e]
			}
		}
	}
}

// ident returns the identity permutation 0..k-1, grown lazily.
func (s *Synchronizer) ident(k int) []int {
	if len(s.identity) < k {
		old := len(s.identity)
		s.identity = append(s.identity, make([]int, k-old)...)
		for i := old; i < k; i++ {
			s.identity[i] = i
		}
	}
	return s.identity[:k]
}
