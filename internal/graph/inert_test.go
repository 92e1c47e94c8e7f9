package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomFeasibleDense builds a random n x n local-shift-like weight matrix
// with density p: weights are x_q - x_p + noise for hidden offsets x, so
// every cycle has non-negative total weight (feasible, as estimates from a
// real execution always are). Absent edges are +Inf; the diagonal is 0.
func randomFeasibleDense(rng *rand.Rand, n int, p float64) *Dense {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	d := NewDense(n)
	d.Fill(Inf)
	d.FillDiag(0)
	for i := 0; i < n; i++ {
		// A Hamiltonian-ish ring keeps most instances connected.
		j := (i + 1) % n
		d.Set(i, j, x[j]-x[i]+rng.Float64())
		d.Set(j, i, x[i]-x[j]+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= p {
				continue
			}
			d.Set(i, j, x[j]-x[i]+rng.Float64())
		}
	}
	return d
}

// closureOf returns the Floyd-Warshall closure of a copy of w.
func closureOf(t *testing.T, w *Dense) *Dense {
	t.Helper()
	ms := &Dense{}
	ms.CopyFrom(w)
	if err := FloydWarshallDense(ms, nil); err != nil {
		t.Fatalf("closure: %v", err)
	}
	return ms
}

// TestClosureEdgeInertPreservesBits tightens random edges and checks the
// certification contract: whenever ClosureEdgeInert accepts, a fresh batch
// closure of the tightened weights is bit-identical to the cached one.
func TestClosureEdgeInertPreservesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inertSeen := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		w := randomFeasibleDense(rng, n, 0.4)
		ms := closureOf(t, w)

		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || math.IsInf(w.At(u, v), 1) {
			continue
		}
		// Tighten by a random amount, keeping the edge pair feasible.
		slack := w.At(u, v) + ms.At(v, u) // >= 0 by feasibility
		nw := w.At(u, v) - rng.Float64()*slack*0.999
		if !ClosureEdgeInert(ms, u, v, nw) {
			continue
		}
		inertSeen++
		w.Set(u, v, nw)
		fresh := closureOf(t, w)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := ms.At(i, j), fresh.At(i, j)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("trial %d: certified inert edge (%d->%d, %v) changed closure at (%d,%d): %v -> %v",
						trial, u, v, nw, i, j, a, b)
				}
			}
		}
	}
	if inertSeen == 0 {
		t.Fatal("no inert tightenings generated; test is vacuous")
	}
}
