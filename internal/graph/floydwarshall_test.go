package graph

import (
	"errors"
	"math"
	"testing"

	"clocksync/internal/oracle"
)

func TestAllPairsSmall(t *testing.T) {
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, -2)
	g.MustAddEdge(0, 2, 5)

	d, err := oracle.AllPairs(g)
	if err != nil {
		t.Fatalf("AllPairs: %v", err)
	}
	if d[0][2] != 2 {
		t.Errorf("d[0][2] = %v, want 2", d[0][2])
	}
	if !math.IsInf(d[2][0], 1) {
		t.Errorf("d[2][0] = %v, want +Inf", d[2][0])
	}
	if d[1][1] != 0 {
		t.Errorf("d[1][1] = %v, want 0", d[1][1])
	}
}

func TestAllPairsNegativeCycle(t *testing.T) {
	g := oracle.NewDigraph(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, -2)
	if _, err := oracle.AllPairs(g); !errors.Is(err, oracle.ErrNegativeCycle) {
		t.Errorf("AllPairs error = %v, want oracle.ErrNegativeCycle", err)
	}
}

func TestFloydWarshallZeroCycleStaysZero(t *testing.T) {
	// A zero-weight cycle must not be flagged and must keep a zero diagonal.
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, -1)
	g.MustAddEdge(2, 0, -1)
	d, err := oracle.AllPairs(g)
	if err != nil {
		t.Fatalf("AllPairs: %v", err)
	}
	for i := 0; i < 3; i++ {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
	}
}

func TestFloydWarshallTriangleInequality(t *testing.T) {
	g := oracle.NewDigraph(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(0, 5, 100)
	d, err := oracle.AllPairs(g)
	if err != nil {
		t.Fatalf("AllPairs: %v", err)
	}
	if d[0][5] != 5 {
		t.Errorf("d[0][5] = %v, want 5", d[0][5])
	}
	n := len(d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if d[i][j] > d[i][k]+d[k][j]+1e-9 {
					t.Fatalf("triangle inequality violated: d[%d][%d]=%v > d[%d][%d]+d[%d][%d]=%v",
						i, j, d[i][j], i, k, k, j, d[i][k]+d[k][j])
				}
			}
		}
	}
}

func TestFloydWarshallEmpty(t *testing.T) {
	if err := oracle.FloydWarshall(nil); err != nil {
		t.Errorf("FloydWarshall(nil) = %v, want nil", err)
	}
}
