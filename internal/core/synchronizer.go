package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"clocksync/internal/graph"
	"clocksync/internal/trace"
)

// Synchronizer runs the SHIFTS pipeline (GLOBAL ESTIMATES, Karp A_max,
// correction distances) with every scratch buffer owned and reused: the
// m~s matrices, the Karp walk table, Bellman-Ford distance and predecessor
// arrays, and the component worklists. After the buffers have warmed up
// to the largest system seen, repeated Sync calls allocate nothing, and
// with Options.Parallelism > 1 the heavy kernels run on a bounded worker
// pool with bit-identical output to the serial path.
//
// Reuse contract: the Result returned by Sync or SyncSystem (including
// every slice it references) remains valid until the SECOND following call
// on the same Synchronizer — results are double-buffered, so two
// back-to-back calls never alias each other. Callers that retain results
// longer must Clone them. A Synchronizer must not be used from multiple
// goroutines concurrently.
//
// The zero value is ready to use.
type Synchronizer struct {
	scc      graph.SCCScratch
	kits     []*compKit
	compSize []int
	compPos  []int
	order    []int
	compErr  []error

	// CSR-source state: the m~ls adjacency, its transpose (built when the
	// hierarchical solver needs undirected partitioning), the node ->
	// local component index map, an identity permutation for local
	// kernels, and the per-component certified lower bounds + per-cluster
	// quality samples of the hierarchical solver.
	csr      graph.CSR
	csrT     graph.CSR
	localIdx []int
	identity []int
	lowerB   []float64
	hierQ    [][]float64

	arenas [2]resultArena
	flip   int
}

// compKit is the per-lane scratch for one component's closure, A_max and
// correction computation, so disconnected components can be processed in
// parallel.
type compKit struct {
	karp     graph.KarpScratch
	ms       graph.Dense // the component-local m~s closure
	w        graph.Dense // correction weights aMax - m~s, diagonal +Inf
	wT       graph.Dense // transpose, for the reverse pass of centered mode
	dist     []float64
	distTo   []float64
	parent   []int
	parentTo []int
	dirty    []bool // Bellman-Ford scan marks, forward and reverse
	dirtyTo  []bool
}

// reserve sizes the kit for components of up to k nodes, so a solve
// allocates its scratch once instead of once per growing component.
// withMS also sizes the local closure, which an in-place solve skips.
func (kit *compKit) reserve(k int, withMS, centered bool) {
	if withMS {
		kit.ms.Reset(k)
	}
	kit.w.Reset(k)
	kit.karp.Reserve(k)
	kit.dist = grow(kit.dist, k)
	kit.parent = grow(kit.parent, k)
	kit.dirty = grow(kit.dirty, k)
	if centered {
		kit.wT.Reset(k)
		kit.distTo = grow(kit.distTo, k)
		kit.parentTo = grow(kit.parentTo, k)
		kit.dirtyTo = grow(kit.dirtyTo, k)
	}
}

// resultArena backs one exposed Result. Two arenas alternate so
// back-to-back Sync calls never alias.
type resultArena struct {
	ms       graph.Dense
	msRows   [][]float64
	corr     []float64
	compFlat []int
	comps    [][]int
	prec     []float64
	cycle    []int
	res      Result
}

// NewSynchronizer returns a ready Synchronizer. Equivalent to new(Synchronizer).
func NewSynchronizer() *Synchronizer { return &Synchronizer{} }

// Close is a no-op kept for API compatibility: worker lanes are checked
// out of a process-wide set for the duration of each solve, so a
// Synchronizer holds nothing to release.
func (s *Synchronizer) Close() {}

// Sync runs the full pipeline on a matrix of estimated maximal local
// shifts, solved as a dense source (a CSR copy is built only to partition
// a component for the hierarchical solver). See the Synchronizer reuse
// contract for the lifetime of the returned Result.
func (s *Synchronizer) Sync(mls [][]float64, opts Options) (*Result, error) {
	mark := opts.start()
	n := len(mls)
	a := s.nextArena(n, true)
	for i, row := range mls {
		if len(row) != n {
			return nil, fmt.Errorf("core: mls matrix row %d has %d entries, want %d", i, len(row), n)
		}
		copy(a.ms.Row(i), row)
	}
	if err := validateDense(&a.ms); err != nil {
		return nil, err
	}
	a.ms.FillDiag(0)
	res, err := s.solve(a, nil, opts, mark)
	return s.published(res, err, nil, opts)
}

// SyncSystem is the end-to-end entry point on a Synchronizer: reduce the
// trace to local shifts under the system's assumptions, then run the
// pipeline. Systems up to denseSourceMaxN processors are reduced into a
// dense matrix; larger ones directly into CSR, O(links) work and memory,
// so no n×n matrix exists unless the result materializes m~s. Same reuse
// contract as Sync.
func (s *Synchronizer) SyncSystem(n int, links []Link, tab *trace.Table, mopts MLSOptions, opts Options) (*Result, error) {
	mark := opts.start()
	dense := n <= denseSourceMaxN
	a := s.nextArena(n, dense)
	var err error
	var g *graph.CSR
	if dense {
		err = mlsMatrixInto(&a.ms, n, links, tab, mopts)
	} else {
		g = &s.csr
		err = mlsCSRInto(g, n, links, tab, mopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		clk := opts.clock()
		opts.Observer.ObservePhase("mls", clk.Now().Sub(mark).Seconds())
		mark = clk.Now()
	}
	if dense {
		if err := validateDense(&a.ms); err != nil {
			return nil, err
		}
		a.ms.FillDiag(0)
	}
	res, err := s.solve(a, g, opts, mark)
	return s.published(res, err, links, opts)
}

// SyncCSR runs the pipeline on a prepared CSR adjacency of estimated
// maximal local shifts (diagonal implicitly zero, absent pairs +Inf) —
// the entry point for callers that assemble very large sparse systems
// themselves. The reuse contract is that of Sync. g is read, never
// retained.
func (s *Synchronizer) SyncCSR(g *graph.CSR, opts Options) (*Result, error) {
	mark := opts.start()
	g.Build()
	res, err := s.solve(s.nextArena(g.N(), false), g, opts, mark)
	return s.published(res, err, nil, opts)
}

// published publishes quality telemetry for a successful entry-point
// solve when Options.Quality asks for it, and passes the solve through.
// links, when non-nil, selects the declared link pairs for the gradient
// histogram.
func (s *Synchronizer) published(res *Result, err error, links []Link, opts Options) (*Result, error) {
	if err == nil && opts.Quality {
		s.publishQuality(res, linkPairs(links), opts.QualityLabel)
	}
	return res, err
}

// nextArena flips the double buffer and sizes the fixed-shape buffers.
// dense sizes the n×n matrix that receives the raw m~ls of a dense source
// (and is closed into m~s); a CSR source passes false, and the solve
// decides later whether to materialize a block-diagonal m~s.
func (s *Synchronizer) nextArena(n int, dense bool) *resultArena {
	a := &s.arenas[s.flip]
	s.flip ^= 1
	if dense {
		a.ms.Reset(n)
	} else {
		a.ms.Reset(0)
	}
	a.corr = grow(a.corr, n)
	a.compFlat = grow(a.compFlat, n)
	a.cycle = a.cycle[:0]
	a.res = Result{}
	return a
}

// layoutComponents lays the component partition recorded in s.scc.CompOf
// out into arena storage: members ascending, components ordered by
// smallest member.
func (s *Synchronizer) layoutComponents(a *resultArena, n, nc int) {
	s.compSize = grow(s.compSize, nc)
	s.compPos = grow(s.compPos, nc)
	s.order = grow(s.order, nc)
	s.compErr = grow(s.compErr, nc)
	for c := 0; c < nc; c++ {
		s.compSize[c] = 0
		s.order[c] = c
		s.compErr[c] = nil
	}
	compOf := s.scc.CompOf
	for v := 0; v < n; v++ {
		s.compSize[compOf[v]]++
	}
	// Smallest member of component c is the first node v (ascending) with
	// compOf[v] == c; record it in compPos temporarily for the ordering.
	for c := 0; c < nc; c++ {
		s.compPos[c] = n
	}
	for v := n - 1; v >= 0; v-- {
		s.compPos[compOf[v]] = v
	}
	slices.SortFunc(s.order, func(x, y int) int { return s.compPos[x] - s.compPos[y] })

	if cap(a.comps) < nc {
		a.comps = make([][]int, nc)
	}
	a.comps = a.comps[:nc]
	a.prec = grow(a.prec, nc)
	off := 0
	for rank, c := range s.order {
		a.comps[rank] = a.compFlat[off : off : off+s.compSize[c]]
		s.compPos[c] = rank
		off += s.compSize[c]
	}
	// Bucketing nodes in ascending order yields ascending members per
	// component for free.
	for v := 0; v < n; v++ {
		rank := s.compPos[compOf[v]]
		a.comps[rank] = append(a.comps[rank], v)
	}
}

// componentCorrections implements step 2 of SHIFTS on one component from
// its component-local k×k closure (row a / column b are comp[a] /
// comp[b]): corrections are dist_w(root, p) with w(p,q) = aMax - m~s(p,q)
// (no negative cycles by the definition of A_max); centered mode uses
// (dist_w(root,p) - dist_w(p,root))/2, running the forward and reverse
// Bellman-Ford passes on two lanes when a pool is available.
func (s *Synchronizer) componentCorrections(kit *compKit, ms *graph.Dense, comp []int, aMax float64, opts Options, out []float64, pool *graph.Pool) error {
	k := len(comp)
	kit.w.Reset(k)
	for a := 0; a < k; a++ {
		src := ms.Row(a)
		dst := kit.w.Row(a)
		for b := 0; b < k; b++ {
			dst[b] = aMax - src[b]
		}
		dst[a] = graph.Inf // no self edges
	}
	rootLocal := 0
	if slices.Contains(comp, opts.Root) {
		rootLocal = slices.Index(comp, opts.Root)
	}
	kit.dist = grow(kit.dist, k)
	kit.parent = grow(kit.parent, k)
	kit.dirty = grow(kit.dirty, k)
	if !opts.Centered {
		if err := s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent, kit.dirty); err != nil {
			return err
		}
		for a, p := range comp {
			out[p] = kit.dist[a]
		}
		return nil
	}
	kit.w.TransposeInto(&kit.wT)
	kit.distTo = grow(kit.distTo, k)
	kit.parentTo = grow(kit.parentTo, k)
	kit.dirtyTo = grow(kit.dirtyTo, k)
	var errFwd, errRev error
	if pool != nil {
		pool.Run(2, func(part int) {
			if part == 0 {
				errFwd = s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent, kit.dirty)
			} else {
				errRev = s.rootDistancesDense(&kit.wT, rootLocal, kit.distTo, kit.parentTo, kit.dirtyTo)
			}
		})
	} else {
		errFwd = s.rootDistancesDense(&kit.w, rootLocal, kit.dist, kit.parent, kit.dirty)
		errRev = s.rootDistancesDense(&kit.wT, rootLocal, kit.distTo, kit.parentTo, kit.dirtyTo)
	}
	if errFwd != nil {
		return errFwd
	}
	if errRev != nil {
		return errRev
	}
	for a, p := range comp {
		out[p] = (kit.dist[a] - kit.distTo[a]) / 2
	}
	return nil
}

// rootDistancesDense runs dense Bellman-Ford and normalizes so the root's
// own distance is exactly zero (tiny negative cycle noise otherwise
// perturbs it).
func (s *Synchronizer) rootDistancesDense(w *graph.Dense, root int, dist []float64, parent []int, dirty []bool) error {
	if err := graph.BellmanFordDense(w, root, dist, parent, dirty); err != nil {
		if errors.Is(err, graph.ErrNegativeCycle) {
			// A_max is by construction the maximum cycle mean, so this can
			// only be numerical noise; treat as infeasible input.
			return fmt.Errorf("%w: correction weights have a negative cycle", ErrInfeasible)
		}
		return err
	}
	if r := dist[root]; r != 0 {
		for i := range dist {
			dist[i] -= r
		}
	}
	return nil
}

// kit returns the i-th per-lane scratch kit, growing the set lazily.
func (s *Synchronizer) kit(i int) *compKit {
	for len(s.kits) <= i {
		s.kits = append(s.kits, &compKit{})
	}
	return s.kits[i]
}

// Clone returns a deep copy of the Result that shares no memory with the
// receiver — the escape hatch for callers that retain arena-backed results
// beyond the Synchronizer reuse window.
func (r *Result) Clone() *Result {
	out := &Result{
		Precision:          r.Precision,
		Corrections:        slices.Clone(r.Corrections),
		ComponentPrecision: slices.Clone(r.ComponentPrecision),
		CriticalCycle:      slices.Clone(r.CriticalCycle),
	}
	if r.MS != nil {
		n := len(r.MS)
		out.MS = graph.NewMatrix(n, 0)
		for i, row := range r.MS {
			copy(out.MS[i], row)
		}
	}
	if r.Components != nil {
		total := 0
		for _, c := range r.Components {
			total += len(c)
		}
		flat := make([]int, 0, total)
		out.Components = make([][]int, len(r.Components))
		for i, c := range r.Components {
			start := len(flat)
			flat = append(flat, c...)
			out.Components[i] = flat[start:len(flat):len(flat)]
		}
	}
	return out
}

// validateDense rejects an m~ls matrix with a NaN or -Inf off-diagonal
// entry: no execution yields either.
func validateDense(m *graph.Dense) error {
	n := m.N()
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j, x := range row {
			if i == j {
				continue
			}
			if math.IsNaN(x) {
				return fmt.Errorf("core: mls[%d][%d] is NaN", i, j)
			}
			if math.IsInf(x, -1) {
				return fmt.Errorf("core: mls[%d][%d] is -Inf", i, j)
			}
		}
	}
	return nil
}

// grow returns s resized to n, reallocating only when its capacity is
// short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// synchronizerPool backs the package-level Synchronize/SynchronizeSystem
// wrappers: repeated calls reuse warmed-up scratch across the process
// while still returning detached, caller-owned Results.
var synchronizerPool = sync.Pool{New: func() any { return NewSynchronizer() }}
