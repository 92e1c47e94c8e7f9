package core

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/graph"
	"clocksync/internal/obs"
)

// hierInstance builds a ring-of-cliques instance big enough that a forced
// ClusterSize actually splits it, plus the exact reference solution.
func hierInstance(t *testing.T, seed int64, cliques, size int) ([][]float64, *Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.SparseRingOfCliques(rng, cliques, size, 0.01, 1)
	mls := csrToMatrix(g)
	exact, err := Synchronize(mls, Options{Solver: SolverExact})
	if err != nil {
		t.Fatalf("exact reference: %v", err)
	}
	return mls, exact
}

// TestHierarchicalSoundAndAdmissible forces the two-level solver on an
// instance the exact path could handle, then checks the certificate
// against the exact optimum: λ̂ must dominate the true A_max, the
// corrections must be admissible under the exact m~s at gradient λ̂, and
// the certificate must not be wildly loose on this topology.
func TestHierarchicalSoundAndAdmissible(t *testing.T) {
	for _, centered := range []bool{false, true} {
		mls, exact := hierInstance(t, 17, 10, 32) // n = 320
		hier, err := Synchronize(mls, Options{
			Solver:      SolverHierarchical,
			ClusterSize: 32,
			Centered:    centered,
		})
		if err != nil {
			t.Fatalf("hierarchical (centered=%v): %v", centered, err)
		}
		lam := hier.Precision
		opt := exact.Precision
		if lam < opt-1e-9 {
			t.Fatalf("centered=%v: certificate %v below optimum %v", centered, lam, opt)
		}
		// Loose looseness bound: λ̂ composes intra-cluster closures whose
		// own max mean cycles can exceed the global A_max, so 3x does not
		// hold in general — but an order-of-magnitude blowup on a benign
		// ring of cliques would mean the certificate logic regressed.
		if lam > 10*opt {
			t.Fatalf("centered=%v: certificate %v more than 10x optimum %v", centered, lam, opt)
		}
		n := len(mls)
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if p == q || math.IsInf(exact.MS[p][q], 1) {
					continue
				}
				if b := exact.MS[p][q] + hier.Corrections[q] - hier.Corrections[p]; b > lam+1e-6 {
					t.Fatalf("centered=%v pair (%d,%d): gradient %v exceeds certificate %v",
						centered, p, q, b, lam)
				}
			}
		}
		if !centered && hier.Corrections[0] != 0 {
			t.Fatalf("root correction %v, want 0", hier.Corrections[0])
		}
	}
}

// TestHierarchicalParallelBitIdentical: the hierarchical solver obeys the
// repo-wide contract that parallelism never changes bits.
func TestHierarchicalParallelBitIdentical(t *testing.T) {
	mls, _ := hierInstance(t, 29, 8, 24) // n = 192
	opts := Options{Solver: SolverHierarchical, ClusterSize: 24}
	serialOpts := opts
	serialOpts.Parallelism = 1
	serial, err := Synchronize(mls, serialOpts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parOpts := opts
	parOpts.Parallelism = 8
	par, err := Synchronize(mls, parOpts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	compareResultsBitIdentical(t, "parallelism", serial, par)
}

// TestHierarchicalMultiComponent: disconnected blocks each take the
// hierarchical path independently; global precision is +Inf while every
// per-component certificate stays finite and sound.
func TestHierarchicalMultiComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	blockA := graph.SparseRingOfCliques(rng, 6, 16, 0.01, 1) // n = 96
	blockB := graph.SparseRingOfCliques(rng, 5, 16, 0.01, 1) // n = 80
	na, nb := blockA.N(), blockB.N()
	n := na + nb
	mls := graph.NewMatrix(n, graph.Inf)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for u := 0; u < na; u++ {
		cols, wgts := blockA.Row(u)
		for e := range cols {
			mls[u][cols[e]] = wgts[e]
		}
	}
	for u := 0; u < nb; u++ {
		cols, wgts := blockB.Row(u)
		for e := range cols {
			mls[na+u][na+cols[e]] = wgts[e]
		}
	}
	exact, err := Synchronize(mls, Options{Solver: SolverExact})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	hier, err := Synchronize(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 16,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("hierarchical: %v", err)
	}
	if !math.IsInf(hier.Precision, 1) {
		t.Fatalf("global precision %v, want +Inf across components", hier.Precision)
	}
	if len(hier.Components) != 2 {
		t.Fatalf("%d components, want 2", len(hier.Components))
	}
	for ci := range hier.Components {
		cp, dp := hier.ComponentPrecision[ci], exact.ComponentPrecision[ci]
		if math.IsInf(cp, 1) || math.IsNaN(cp) {
			t.Fatalf("component %d precision %v", ci, cp)
		}
		if cp < dp-1e-9 {
			t.Fatalf("component %d: certificate %v below optimum %v", ci, cp, dp)
		}
	}
}

// TestHierarchicalQualityGauges: the certified gauges published for a
// hierarchical run must bracket the exact optimum — the published
// "optimal" is the contracted-graph lower bound λ_B ≤ A_max, the
// published "achieved" is λ̂ ≥ A_max — and the per-cluster histogram
// must have seen one sample per cluster.
func TestHierarchicalQualityGauges(t *testing.T) {
	mls, exact := hierInstance(t, 61, 9, 28) // n = 252
	s := NewSynchronizer()
	defer s.Close()
	res, err := s.Sync(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 28,
		Quality:     true,
	})
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	label := "hier-gauges"
	s.publishQuality(res, nil, label)
	achieved := obs.Default.Gauge(obs.Labeled("quality.precision.achieved", "session", label)).Value()
	optimal := obs.Default.Gauge(obs.Labeled("quality.precision.optimal", "session", label)).Value()
	if achieved != res.Precision {
		t.Fatalf("achieved gauge %v, want %v", achieved, res.Precision)
	}
	if optimal > exact.Precision+1e-9 {
		t.Fatalf("optimal gauge %v exceeds true optimum %v", optimal, exact.Precision)
	}
	if optimal <= 0 {
		t.Fatalf("optimal gauge %v, want positive lower bound", optimal)
	}
	if achieved < optimal {
		t.Fatalf("achieved %v below optimal %v", achieved, optimal)
	}
	hist := obs.Default.Histogram(obs.Labeled("quality.precision.cluster", "session", label), obs.DefTimeBuckets)
	if hist.Snapshot().Count == 0 {
		t.Fatal("per-cluster precision histogram empty")
	}
}

// TestHierarchicalTimedSerial: an Observer forces the serial path with
// per-phase timers; the hierarchical stages must attribute their work
// without panicking and cover all three phases.
func TestHierarchicalTimedSerial(t *testing.T) {
	mls, _ := hierInstance(t, 71, 6, 20) // n = 120
	var phases []string
	_, err := Synchronize(mls, Options{
		Solver:      SolverHierarchical,
		ClusterSize: 20,
		Observer: obs.PhaseFunc(func(ph string, _ float64) {
			phases = append(phases, ph)
		}),
	})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	want := map[string]bool{"estimate": false, "karp_amax": false, "corrections": false}
	for _, ph := range phases {
		if _, ok := want[ph]; ok {
			want[ph] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("phase %q never observed (got %v)", name, phases)
		}
	}
}
