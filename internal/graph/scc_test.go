package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clocksync/internal/oracle"
)

func canonicalize(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		out[i] = append([]int(nil), c...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestSCCTable(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  [][]int
	}{
		{
			name: "empty graph",
			n:    0,
			want: [][]int{},
		},
		{
			name: "singletons no edges",
			n:    3,
			want: [][]int{{0}, {1}, {2}},
		},
		{
			name:  "two cycle",
			n:     2,
			edges: [][2]int{{0, 1}, {1, 0}},
			want:  [][]int{{0, 1}},
		},
		{
			name:  "chain",
			n:     3,
			edges: [][2]int{{0, 1}, {1, 2}},
			want:  [][]int{{0}, {1}, {2}},
		},
		{
			name:  "two components",
			n:     5,
			edges: [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {1, 2}},
			want:  [][]int{{0, 1}, {2, 3, 4}},
		},
		{
			name:  "self loop",
			n:     2,
			edges: [][2]int{{0, 0}},
			want:  [][]int{{0}, {1}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := oracle.NewDigraph(tt.n)
			for _, e := range tt.edges {
				g.MustAddEdge(e[0], e[1], 1)
			}
			got := canonicalize(oracle.SCC(g))
			want := canonicalize(tt.want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("SCC = %v, want %v", got, want)
			}
		})
	}
}

// bruteSCC computes components via reachability closure.
func bruteSCC(g *oracle.Digraph) [][]int {
	n := g.N()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		// BFS
		queue := []int{i}
		reach[i][i] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(v) {
				if !reach[i][e.To] {
					reach[i][e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	assigned := make([]bool, n)
	var comps [][]int
	for i := 0; i < n; i++ {
		if assigned[i] {
			continue
		}
		comp := []int{i}
		assigned[i] = true
		for j := i + 1; j < n; j++ {
			if !assigned[j] && reach[i][j] && reach[j][i] {
				comp = append(comp, j)
				assigned[j] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestSCCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		g := oracle.RandomDigraph(rng, n, 0.25, 0, 1)
		got := canonicalize(oracle.SCC(g))
		want := canonicalize(bruteSCC(g))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): SCC = %v, want %v", trial, n, got, want)
		}
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// 0 -> 1 -> 2 (three singleton components): Tarjan must emit a component
	// before any component that reaches it.
	g := oracle.NewDigraph(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	comps := oracle.SCC(g)
	pos := make(map[int]int)
	for i, c := range comps {
		for _, v := range c {
			pos[v] = i
		}
	}
	if !(pos[2] < pos[1] && pos[1] < pos[0]) {
		t.Errorf("components not in reverse topological order: %v", comps)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	const n = 200000
	g := oracle.NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	if got := len(oracle.SCC(g)); got != n {
		t.Errorf("len(SCC) = %d, want %d", got, n)
	}
}
