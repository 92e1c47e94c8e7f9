package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clocksync/internal/graph"
)

// csrToMatrix expands a CSR adjacency into the equivalent mls row matrix.
func csrToMatrix(g *graph.CSR) [][]float64 {
	n := g.N()
	mls := graph.NewMatrix(n, graph.Inf)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for u := 0; u < n; u++ {
		cols, wgts := g.Row(u)
		for e, v := range cols {
			mls[u][cols[e]] = wgts[e]
			_ = v
		}
	}
	return mls
}

// compareResultsBitIdentical asserts two results agree bit for bit on
// corrections, precision, and component structure. MS is compared only on
// in-component entries, the only ones a consumer reads.
func compareResultsBitIdentical(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if !sameFloats(want.Corrections, got.Corrections) {
		t.Fatalf("%s: corrections differ\nwant %v\ngot  %v", tag, want.Corrections, got.Corrections)
	}
	if math.Float64bits(want.Precision) != math.Float64bits(got.Precision) {
		t.Fatalf("%s: precision %v vs %v", tag, want.Precision, got.Precision)
	}
	if !sameFloats(want.ComponentPrecision, got.ComponentPrecision) {
		t.Fatalf("%s: component precision %v vs %v", tag, want.ComponentPrecision, got.ComponentPrecision)
	}
	if len(want.Components) != len(got.Components) {
		t.Fatalf("%s: %d vs %d components", tag, len(want.Components), len(got.Components))
	}
	for ci := range want.Components {
		if !sameInts(want.Components[ci], got.Components[ci]) {
			t.Fatalf("%s: component %d differs", tag, ci)
		}
	}
	if want.MS != nil && got.MS != nil {
		for _, comp := range want.Components {
			for _, p := range comp {
				for _, q := range comp {
					if math.Float64bits(want.MS[p][q]) != math.Float64bits(got.MS[p][q]) {
						t.Fatalf("%s: ms[%d][%d] %v vs %v", tag, p, q, want.MS[p][q], got.MS[p][q])
					}
				}
			}
		}
	}
}

// TestSparseMatchesDenseBitIdentical: on randomized instances — connected
// and disconnected, plain and centered, serial and parallel — the exact
// path reproduces the digests pinned from the removed whole-matrix dense
// backend, and SolverAuto and SolverHierarchical (every component fits the
// default cluster size) agree with it bit for bit.
func TestSparseMatchesDenseBitIdentical(t *testing.T) {
	pinned := loadPinned(t)
	pinnedRandomTrials(func(trial int, mls [][]float64, opts Options) {
		optsE := opts
		optsE.Solver = SolverExact
		want, errE := Synchronize(mls, optsE)
		checkPinned(t, pinned, fmt.Sprintf("random/%02d", trial), want, errE)
		for _, solver := range []Solver{SolverAuto, SolverHierarchical} {
			optsS := opts
			optsS.Solver = solver
			got, errS := Synchronize(mls, optsS)
			if (errE == nil) != (errS == nil) {
				t.Fatalf("trial %d solver %v: exact err %v, err %v", trial, solver, errE, errS)
			}
			if errE != nil {
				continue
			}
			compareResultsBitIdentical(t, solver.String(), want, got)
		}
	})
}

// TestSyncCSRMatchesSync: assembling the same instance via the CSR entry
// point gives the same result as the dense matrix entry point, and both
// reproduce the pinned dense-backend digests.
func TestSyncCSRMatchesSync(t *testing.T) {
	pinned := loadPinned(t)
	s := NewSynchronizer()
	defer s.Close()
	pinnedCSRTrials(func(trial int, g *graph.CSR, opts Options) {
		opts.Solver = SolverExact
		name := fmt.Sprintf("csr/%02d", trial)
		want, err := Synchronize(csrToMatrix(g), opts)
		checkPinned(t, pinned, name, want, err)
		got, err := s.SyncCSR(g, opts)
		checkPinned(t, pinned, name, got, err)
		compareResultsBitIdentical(t, "csr", want, got.Clone())
	})
}

// TestSparseAutoLargeExact: a system above the dense-source cutoff of
// SyncSystem but below the exact component ceiling solves exactly under
// SolverAuto from either input format and reproduces the pinned
// dense-backend digest.
func TestSparseAutoLargeExact(t *testing.T) {
	pinned := loadPinned(t)
	g := pinnedRingOfCliques() // n = 560 > denseSourceMaxN
	want, err := Synchronize(csrToMatrix(g), Options{Solver: SolverExact})
	checkPinned(t, pinned, "ring-of-cliques-560", want, err)
	var s Synchronizer
	got, err := s.SyncCSR(g, Options{}) // Auto
	checkPinned(t, pinned, "ring-of-cliques-560", got, err)
}

// TestSparseNoMSBeyondLimit: past msMaterializeMax a CSR-source solve
// returns no m~s matrix, PairBound refuses politely, and the quality
// report degenerates to the certified precision.
func TestSparseNoMSBeyondLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.SparseRingOfCliques(rng, 33, 32, 0.01, 1) // n = 1056 > 1024
	s := NewSynchronizer()
	defer s.Close()
	res, err := s.SyncCSR(g, Options{Solver: SolverHierarchical})
	if err != nil {
		t.Fatalf("SyncCSR: %v", err)
	}
	if res.MS != nil {
		t.Fatal("MS materialized past msMaterializeMax")
	}
	if math.IsInf(res.Precision, 1) {
		t.Fatal("ring of cliques should form one component")
	}
	if _, err := res.PairBound(0, 1); err == nil {
		t.Fatal("PairBound succeeded without an m~s matrix")
	}
	rep := AssessQuality(res)
	if rep.Pairs != 0 || rep.Achieved != res.Precision || rep.Ratio != 1 {
		t.Fatalf("degenerate quality report = %+v", rep)
	}
	for p, c := range res.Corrections {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("correction p%d = %v", p, c)
		}
	}
}

// TestSparseSolveMemoryCeiling: a 10k-node solve must never allocate
// anything close to the 800 MB an n×n float64 matrix would need — the
// acceptance bar for the CSR source's memory story.
func TestSparseSolveMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node solve")
	}
	rng := rand.New(rand.NewSource(10))
	g := graph.SparseRingOfCliques(rng, 313, 32, 0.01, 1) // n = 10016
	s := NewSynchronizer()
	defer s.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.SyncCSR(g, Options{Solver: SolverHierarchical})
	if err != nil {
		t.Fatalf("SyncCSR: %v", err)
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	nsq := uint64(g.N()) * uint64(g.N()) * 8
	if total >= nsq/2 {
		t.Fatalf("solve allocated %d MB cumulatively — within 2x of an n×n matrix (%d MB)", total>>20, nsq>>20)
	}
	if math.IsInf(res.Precision, 1) || math.IsNaN(res.Precision) {
		t.Fatalf("precision = %v", res.Precision)
	}
	if len(res.Corrections) != g.N() {
		t.Fatalf("%d corrections for %d nodes", len(res.Corrections), g.N())
	}
}

// FuzzSparseEquivalence drives random sparse topologies through every
// solver setting and both input formats: the dense and CSR sources of the
// exact path must agree bit for bit, and so must SolverAuto; the
// hierarchical solver (forced small clusters) must certify a precision at
// least the optimum, with admissible corrections under the exact m~s.
func FuzzSparseEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(24))
	f.Add(int64(2), uint8(1), uint16(40))
	f.Add(int64(3), uint8(2), uint16(33))
	f.Fuzz(func(t *testing.T, seed int64, topoByte uint8, nRaw uint16) {
		n := 4 + int(nRaw%60)
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomSparse(rng, graph.SparseTopology(topoByte%3), n, 0.01, 1)
		mls := csrToMatrix(g)
		exact, errE := Synchronize(mls, Options{Solver: SolverExact})
		var s Synchronizer
		fromCSR, errC := s.SyncCSR(g, Options{Solver: SolverExact})
		auto, errA := Synchronize(mls, Options{})
		if (errE == nil) != (errC == nil) || (errE == nil) != (errA == nil) {
			t.Fatalf("dense-source err %v vs CSR-source err %v vs auto err %v", errE, errC, errA)
		}
		if errE != nil {
			return
		}
		compareResultsBitIdentical(t, "csr-source", exact, fromCSR)
		compareResultsBitIdentical(t, "auto", exact, auto)

		hier, errH := Synchronize(mls, Options{Solver: SolverHierarchical, ClusterSize: 8})
		if errH != nil {
			t.Fatalf("hierarchical: %v", errH)
		}
		for ci, comp := range exact.Components {
			if hier.ComponentPrecision[ci] < exact.ComponentPrecision[ci]-1e-9 {
				t.Fatalf("component %d: certified %v below optimum %v",
					ci, hier.ComponentPrecision[ci], exact.ComponentPrecision[ci])
			}
			lam := hier.ComponentPrecision[ci]
			for _, p := range comp {
				for _, q := range comp {
					if p == q {
						continue
					}
					if b := exact.MS[p][q] + hier.Corrections[q] - hier.Corrections[p]; b > lam+1e-6 {
						t.Fatalf("pair (%d,%d): bound %v exceeds certificate %v", p, q, b, lam)
					}
				}
			}
		}
	})
}
