package graph

import (
	"math"
	"testing"

	"clocksync/internal/oracle"
)

func TestNewDigraphSizes(t *testing.T) {
	tests := []struct {
		name string
		n    int
		want int
	}{
		{name: "empty", n: 0, want: 0},
		{name: "one", n: 1, want: 1},
		{name: "many", n: 17, want: 17},
		{name: "negative clamps to zero", n: -3, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := oracle.NewDigraph(tt.n).N(); got != tt.want {
				t.Errorf("N() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := oracle.NewDigraph(3)
	tests := []struct {
		name    string
		from    int
		to      int
		w       float64
		wantErr bool
	}{
		{name: "valid", from: 0, to: 1, w: 1.5},
		{name: "negative weight ok", from: 1, to: 2, w: -4},
		{name: "zero weight ok", from: 2, to: 0, w: 0},
		{name: "self loop ok", from: 1, to: 1, w: 2},
		{name: "source out of range", from: 3, to: 0, w: 1, wantErr: true},
		{name: "negative source", from: -1, to: 0, w: 1, wantErr: true},
		{name: "target out of range", from: 0, to: 9, w: 1, wantErr: true},
		{name: "nan weight", from: 0, to: 1, w: math.NaN(), wantErr: true},
		{name: "neg inf weight", from: 0, to: 1, w: math.Inf(-1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.from, tt.to, tt.w)
			if (err != nil) != tt.wantErr {
				t.Errorf("AddEdge(%d,%d,%v) error = %v, wantErr %v", tt.from, tt.to, tt.w, err, tt.wantErr)
			}
		})
	}
}

func TestAddEdgeInfIsAbsent(t *testing.T) {
	g := oracle.NewDigraph(2)
	if err := g.AddEdge(0, 1, math.Inf(1)); err != nil {
		t.Fatalf("AddEdge(+Inf) error: %v", err)
	}
	if g.M() != 0 {
		t.Errorf("M() = %d after +Inf edge, want 0", g.M())
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, -1)
	g.MustAddEdge(0, 1, 5) // parallel edge, heavier: matrix keeps the min

	m := g.Matrix()
	if m[0][1] != 2 {
		t.Errorf("m[0][1] = %v, want 2 (min of parallel edges)", m[0][1])
	}
	if m[1][2] != -1 {
		t.Errorf("m[1][2] = %v, want -1", m[1][2])
	}
	if !math.IsInf(m[2][0], 1) {
		t.Errorf("m[2][0] = %v, want +Inf", m[2][0])
	}
	for i := 0; i < 3; i++ {
		if m[i][i] != 0 {
			t.Errorf("m[%d][%d] = %v, want 0", i, i, m[i][i])
		}
	}

	g2, err := oracle.FromMatrix(m)
	if err != nil {
		t.Fatalf("FromMatrix: %v", err)
	}
	if g2.M() != 2 {
		t.Errorf("round-trip M() = %d, want 2", g2.M())
	}
}

func TestFromMatrixRagged(t *testing.T) {
	if _, err := oracle.FromMatrix([][]float64{{0, 1}, {0}}); err == nil {
		t.Error("FromMatrix(ragged) error = nil, want non-nil")
	}
}

func TestCloneMatrixIndependence(t *testing.T) {
	w := NewMatrix(2, 7)
	c := CloneMatrix(w)
	c[0][0] = -1
	if w[0][0] != 7 {
		t.Errorf("CloneMatrix aliases the input: w[0][0] = %v", w[0][0])
	}
}

func TestEdgesCopy(t *testing.T) {
	g := oracle.NewDigraph(2)
	g.MustAddEdge(0, 1, 1)
	es := g.Edges()
	if len(es) != 1 {
		t.Fatalf("Edges() len = %d, want 1", len(es))
	}
	es[0].Weight = 99
	if g.Out(0)[0].Weight != 1 {
		t.Error("Edges() exposes internal storage")
	}
}
