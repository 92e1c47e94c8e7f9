package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/oracle"
)

func TestBellmanFordSimple(t *testing.T) {
	// 0 -> 1 (4), 0 -> 2 (1), 2 -> 1 (2), 1 -> 3 (1)
	g := oracle.NewDigraph(5)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 1, 2)
	g.MustAddEdge(1, 3, 1)

	sp, err := oracle.BellmanFord(g, 0)
	if err != nil {
		t.Fatalf("BellmanFord: %v", err)
	}
	want := []float64{0, 3, 1, 4, math.Inf(1)}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Errorf("Dist[%d] = %v, want %v", v, sp.Dist[v], d)
		}
	}
}

func TestBellmanFordNegativeEdges(t *testing.T) {
	g := oracle.NewDigraph(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, -3)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(2, 3, 2)

	sp, err := oracle.BellmanFord(g, 0)
	if err != nil {
		t.Fatalf("BellmanFord: %v", err)
	}
	if sp.Dist[2] != 2 {
		t.Errorf("Dist[2] = %v, want 2 (via negative edge)", sp.Dist[2])
	}
	if sp.Dist[3] != 4 {
		t.Errorf("Dist[3] = %v, want 4", sp.Dist[3])
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, -2)
	g.MustAddEdge(2, 1, 1) // 1 -> 2 -> 1 has weight -1

	if _, err := oracle.BellmanFord(g, 0); !errors.Is(err, oracle.ErrNegativeCycle) {
		t.Errorf("BellmanFord error = %v, want oracle.ErrNegativeCycle", err)
	}
}

func TestBellmanFordUnreachableNegativeCycleOK(t *testing.T) {
	g := oracle.NewDigraph(4)
	g.MustAddEdge(0, 1, 1)
	// Negative cycle 2 <-> 3 is unreachable from 0.
	g.MustAddEdge(2, 3, -5)
	g.MustAddEdge(3, 2, 1)

	sp, err := oracle.BellmanFord(g, 0)
	if err != nil {
		t.Fatalf("BellmanFord with unreachable negative cycle: %v", err)
	}
	if sp.Dist[1] != 1 {
		t.Errorf("Dist[1] = %v, want 1", sp.Dist[1])
	}
}

func TestBellmanFordBadSource(t *testing.T) {
	g := oracle.NewDigraph(2)
	if _, err := oracle.BellmanFord(g, 5); err == nil {
		t.Error("BellmanFord(out-of-range source) error = nil, want non-nil")
	}
}

func TestHasNegativeCycle(t *testing.T) {
	tests := []struct {
		name  string
		build func() *oracle.Digraph
		want  bool
	}{
		{
			name:  "empty",
			build: func() *oracle.Digraph { return oracle.NewDigraph(0) },
			want:  false,
		},
		{
			name: "positive cycle",
			build: func() *oracle.Digraph {
				g := oracle.NewDigraph(2)
				g.MustAddEdge(0, 1, 1)
				g.MustAddEdge(1, 0, 1)
				return g
			},
			want: false,
		},
		{
			name: "zero cycle",
			build: func() *oracle.Digraph {
				g := oracle.NewDigraph(2)
				g.MustAddEdge(0, 1, 3)
				g.MustAddEdge(1, 0, -3)
				return g
			},
			want: false,
		},
		{
			name: "negative cycle",
			build: func() *oracle.Digraph {
				g := oracle.NewDigraph(2)
				g.MustAddEdge(0, 1, 3)
				g.MustAddEdge(1, 0, -3.5)
				return g
			},
			want: true,
		},
		{
			name: "negative self loop",
			build: func() *oracle.Digraph {
				g := oracle.NewDigraph(1)
				g.MustAddEdge(0, 0, -0.1)
				return g
			},
			want: true,
		},
		{
			name: "negative cycle in second component",
			build: func() *oracle.Digraph {
				g := oracle.NewDigraph(4)
				g.MustAddEdge(0, 1, 1)
				g.MustAddEdge(2, 3, -1)
				g.MustAddEdge(3, 2, 0.5)
				return g
			},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := oracle.HasNegativeCycle(tt.build()); got != tt.want {
				t.Errorf("HasNegativeCycle = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestBellmanFordMatchesFloydWarshall cross-checks the two shortest-path
// implementations on random graphs without negative cycles.
func TestBellmanFordMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		g := oracle.RandomDigraph(rng, n, 0.4, 0.1, 5) // positive weights: no negative cycles
		ap, err := oracle.AllPairs(g)
		if err != nil {
			t.Fatalf("trial %d: AllPairs: %v", trial, err)
		}
		for s := 0; s < n; s++ {
			sp, err := oracle.BellmanFord(g, s)
			if err != nil {
				t.Fatalf("trial %d: BellmanFord(%d): %v", trial, s, err)
			}
			for v := 0; v < n; v++ {
				if math.Abs(sp.Dist[v]-ap[s][v]) > 1e-9 && !(math.IsInf(sp.Dist[v], 1) && math.IsInf(ap[s][v], 1)) {
					t.Fatalf("trial %d: dist(%d,%d): BF=%v FW=%v", trial, s, v, sp.Dist[v], ap[s][v])
				}
			}
		}
	}
}
