package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/oracle"
)

// TestJohnsonMatchesFloydWarshall cross-checks the two all-pairs
// implementations, including graphs with negative edges.
func TestJohnsonMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(9)
		// Negative edges without negative cycles: derive weights from
		// potentials plus non-negative noise: w(u,v) = base + p[u] - p[v].
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()*4 - 2
		}
		g := oracle.NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() > 0.4 {
					continue
				}
				g.MustAddEdge(u, v, rng.Float64()*2+p[u]-p[v])
			}
		}
		fw, err := oracle.AllPairs(g)
		if err != nil {
			t.Fatalf("trial %d: AllPairs: %v", trial, err)
		}
		jo, err := oracle.AllPairsJohnson(g)
		if err != nil {
			t.Fatalf("trial %d: Johnson: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := fw[i][j], jo[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Fatalf("trial %d: reachability differs at (%d,%d): %v vs %v", trial, i, j, a, b)
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("trial %d: dist(%d,%d): FW %v vs Johnson %v", trial, i, j, a, b)
				}
			}
		}
	}
}

func TestJohnsonNegativeCycle(t *testing.T) {
	g := oracle.NewDigraph(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, -2)
	if _, err := oracle.AllPairsJohnson(g); !errors.Is(err, oracle.ErrNegativeCycle) {
		t.Errorf("error = %v, want oracle.ErrNegativeCycle", err)
	}
}

func TestJohnsonDisconnected(t *testing.T) {
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 5)
	d, err := oracle.AllPairsJohnson(g)
	if err != nil {
		t.Fatalf("Johnson: %v", err)
	}
	if d[0][1] != 5 || !math.IsInf(d[1][0], 1) || !math.IsInf(d[0][2], 1) {
		t.Errorf("distances wrong: %v", d)
	}
	for i := 0; i < 3; i++ {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v", i, i, d[i][i])
		}
	}
}

// TestBinaryMatchesKarp cross-checks the two maximum-mean-cycle
// implementations on random graphs.
func TestBinaryMatchesKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		g := oracle.RandomDigraph(rng, n, 0.45, -3, 3)
		karp, okK := oracle.MaxMeanCycle(g)
		bin, okB := oracle.MaxMeanCycleBinary(g, 1e-10)
		if okK != okB {
			t.Fatalf("trial %d: ok mismatch: karp %v binary %v", trial, okK, okB)
		}
		if !okK {
			continue
		}
		if math.Abs(karp.Mean-bin) > 1e-7*(1+math.Abs(karp.Mean)) {
			t.Fatalf("trial %d: karp %v vs binary %v", trial, karp.Mean, bin)
		}
	}
}

func TestBinaryEdgeCases(t *testing.T) {
	if _, ok := oracle.MaxMeanCycleBinary(oracle.NewDigraph(3), 1e-9); ok {
		t.Error("empty graph reported a cycle")
	}
	g := oracle.NewDigraph(2)
	g.MustAddEdge(0, 1, 1)
	if _, ok := oracle.MaxMeanCycleBinary(g, 1e-9); ok {
		t.Error("acyclic graph reported a cycle")
	}
	// All edges equal: mean is exactly that value.
	c := oracle.NewDigraph(2)
	c.MustAddEdge(0, 1, 2.5)
	c.MustAddEdge(1, 0, 2.5)
	mean, ok := oracle.MaxMeanCycleBinary(c, 1e-12)
	if !ok || math.Abs(mean-2.5) > 1e-9 {
		t.Errorf("uniform cycle mean = %v, %v", mean, ok)
	}
	// Non-positive tol falls back to a sane default.
	if mean, ok := oracle.MaxMeanCycleBinary(c, -1); !ok || math.Abs(mean-2.5) > 1e-6 {
		t.Errorf("default-tol mean = %v, %v", mean, ok)
	}
}
