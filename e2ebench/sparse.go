package main

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync"
	"clocksync/internal/core"
)

// sparseGeo is the large sparse regime: geometric systems of about 2k
// processors each (links between points of a site within about 1.5 grid
// spacings, so about 8 neighbours) with synthesized per-link
// observations. One op fills every system's Recorder and calls its
// System.Synchronize (Auto), which routes through the CSR pipeline: an
// exact per-component solve for the small site and the hierarchical
// solver for the large one. How costly the hierarchical solve is varies
// a good deal from one draw to the next, so an op solves several
// systems, and their sites have fixed sizes rather than ones left to the
// draw.
//
// Each Recorder is allocated at set-up and refilled with the same
// observations by every op: that leaves each link's minimum and maximum
// unchanged, so every op solves the same instances.
type sparseGeo struct {
	systems []*geoSystem
}

// geoSystem is one system of the workload and its observations.
type geoSystem struct {
	n     int
	sys   *clocksync.System
	rec   *clocksync.Recorder
	obs   []obsRec
	comps int       // connected components of the link graph
	ref   []float64 // the first solve's corrections
	refP  float64
}

// obsRec is one synthesized observation.
type obsRec struct {
	from, to  clocksync.ProcID
	send, rcv float64
}

const (
	sparseSystems = 4
	sparseSamples = 4 // observations per link direction
	// sparseStartSpread bounds the clocks' start offsets (seconds).
	sparseStartSpread = 0.01
)

// sparseSites are the grid shapes of a system's sites, each a geometric
// graph of its own: one site above the 2048-node exact limit
// (hierarchical solve) and one small one (exact solve), 2128 processors
// in all.
var sparseSites = [][2]int{{48, 43}, {8, 8}}

func (w *sparseGeo) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < sparseSystems; k++ {
		g, err := newGeoSystem(rng.Int63())
		if err != nil {
			return err
		}
		w.systems = append(w.systems, g)
	}
	// Warm-up: the first solve, which also becomes the reference every
	// later op must reproduce bit for bit.
	out, err := w.op(0, nil)
	if err != nil {
		return err
	}
	off := 0
	for k, g := range w.systems {
		g.ref = append([]float64(nil), out.res.corrections[off:off+g.n]...)
		g.refP = maxPrecision(out.aux.([]*core.Result)[k])
		off += g.n
	}
	return w.check(0, out)
}

func newGeoSystem(seed int64) (*geoSystem, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &geoSystem{}
	var pairs [][2]int
	for _, site := range sparseSites {
		for _, e := range latticeSite(rng, site[0], site[1]) {
			pairs = append(pairs, [2]int{g.n + e[0], g.n + e[1]})
		}
		g.n += site[0] * site[1]
	}
	sys, err := clocksync.NewSystem(g.n)
	if err != nil {
		return nil, err
	}
	g.sys = sys
	starts := make([]float64, g.n)
	for i := range starts {
		starts[i] = sparseStartSpread * rng.Float64()
	}
	// Alike links (one radio model): delays uniform in [lo, hi], declared
	// with a margin.
	const lo, hi = 0.001, 0.011
	bounds, err := clocksync.SymmetricBounds(lo/2, hi+0.001)
	if err != nil {
		return nil, err
	}
	uf := newUnionFind(g.n)
	for _, e := range pairs {
		if err := g.sys.AddLink(clocksync.ProcID(e[0]), clocksync.ProcID(e[1]), bounds); err != nil {
			return nil, err
		}
		uf.union(e[0], e[1])
		for k := 0; k < sparseSamples; k++ {
			for _, dir := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
				t := 2 + rng.Float64()
				d := lo + (hi-lo)*rng.Float64()
				g.obs = append(g.obs, obsRec{from: clocksync.ProcID(dir[0]), to: clocksync.ProcID(dir[1]),
					send: t - starts[dir[0]], rcv: t + d - starts[dir[1]]})
			}
		}
	}
	g.comps = uf.count
	g.rec = clocksync.NewRecorder(g.n)
	return g, nil
}

// latticeSite returns the links of one site of w×h processors: points on
// a w×h grid, each displaced by up to 30% of the spacing along each axis,
// linked when closer than 1.5 spacings (about 8 neighbours each). The
// jittered lattice keeps a site connected and alike from one seed to the
// next; uniform points leave clusters and voids that make one draw far
// costlier to partition than another.
func latticeSite(rng *rand.Rand, w, h int) [][2]int {
	const jitter, radius = 0.3, 1.5
	xs, ys := make([]float64, w*h), make([]float64, w*h)
	for p := range xs {
		xs[p] = float64(p%w) + jitter*(2*rng.Float64()-1)
		ys[p] = float64(p/w) + jitter*(2*rng.Float64()-1)
	}
	var pairs [][2]int
	for p := range xs {
		// Displacements of at most 0.3 keep every partner within two
		// grid steps.
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				gx, gy := p%w+dx, p/w+dy
				if gx < 0 || gx >= w || gy < 0 || gy >= h {
					continue
				}
				q := gy*w + gx
				if q > p && math.Hypot(xs[p]-xs[q], ys[p]-ys[q]) <= radius {
					pairs = append(pairs, [2]int{p, q})
				}
			}
		}
	}
	return pairs
}

func (w *sparseGeo) op(i int, tr *tracer) (*output, error) {
	root := tr.root()
	var corr []float64
	results := make([]*core.Result, len(w.systems))
	var precision float64
	for k, g := range w.systems {
		end := tr.span("trace.record", root)
		for _, o := range g.obs {
			if err := g.rec.Observe(o.from, o.to, o.send, o.rcv); err != nil {
				end()
				return nil, err
			}
		}
		end()

		syncID, end := tr.child("core.sync", root)
		observer := clocksync.Option(func(o *core.Options) { o.Observer = tr.phases(syncID) })
		// One lane. With more, Synchronize solves a multi-component system's
		// components in parallel, one lane each, unless an Observer is set;
		// the giant component's run time then swings with scheduling, and
		// traced and untraced ops would take different code paths.
		res, err := g.sys.Synchronize(g.rec, observer, clocksync.WithParallelism(1))
		end()
		if err != nil {
			return nil, err
		}
		results[k] = res
		corr = append(corr, res.Corrections...)
		precision += maxPrecision(res) / float64(len(w.systems))
	}
	return &output{res: resultView{corr, precision}, aux: results}, nil
}

// maxPrecision is the largest component precision of a result: A_max of
// the exact components, the certified bound of the hierarchical ones.
func maxPrecision(res *core.Result) float64 {
	worst := 0.0
	for _, a := range res.ComponentPrecision {
		worst = max(worst, a)
	}
	return worst
}

// check requires, for every system, one result component per connected
// component of the link graph (every link carries traffic both ways under
// finite bounds) and finite component precisions; and — since every op
// solves the same instances — corrections and precisions bit-identical to
// the first solve.
func (w *sparseGeo) check(i int, out *output) error {
	off := 0
	for k, g := range w.systems {
		res := out.aux.([]*core.Result)[k]
		if len(res.Components) != g.comps {
			return fmt.Errorf("system %d: %d sync components, the link graph has %d", k, len(res.Components), g.comps)
		}
		for c, a := range res.ComponentPrecision {
			if math.IsInf(a, 0) || math.IsNaN(a) || a < 0 {
				return fmt.Errorf("system %d: component %d precision %v", k, c, a)
			}
		}
		corr := out.res.corrections[off : off+g.n]
		off += g.n
		if g.ref == nil {
			continue
		}
		if p := maxPrecision(res); math.Float64bits(p) != math.Float64bits(g.refP) {
			return fmt.Errorf("system %d: precision %v, first solve %v", k, p, g.refP)
		}
		for p, c := range corr {
			if math.Float64bits(c) != math.Float64bits(g.ref[p]) {
				return fmt.Errorf("system %d: correction[%d] = %v, first solve %v", k, p, c, g.ref[p])
			}
		}
	}
	if off != len(out.res.corrections) {
		return fmt.Errorf("%d corrections for %d processors", len(out.res.corrections), off)
	}
	return nil
}

func (w *sparseGeo) finish(r *runStats) error {
	for k, g := range w.systems {
		r.notes = append(r.notes, fmt.Sprintf("sparse-geo system %d: n=%d, %d observations per op, %d components",
			k, g.n, len(g.obs), g.comps))
	}
	return nil
}

func (w *sparseGeo) close() {}

// unionFind counts connected components.
type unionFind struct {
	parent []int
	count  int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), count: n}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	if ra, rb := u.find(a), u.find(b); ra != rb {
		u.parent[ra] = rb
		u.count--
	}
}
