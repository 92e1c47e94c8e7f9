package graph

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/oracle"
)

// edge is one weighted arc of a table case.
type edge struct {
	from, to int
	weight   float64
}

func TestMaxMeanCycleTable(t *testing.T) {
	tests := []struct {
		name   string
		n      int
		edges  []edge
		want   float64
		wantOK bool
	}{
		{
			name:   "acyclic",
			n:      3,
			edges:  []edge{{0, 1, 5}, {1, 2, 5}},
			wantOK: false,
		},
		{
			name:   "single two cycle",
			n:      2,
			edges:  []edge{{0, 1, 3}, {1, 0, 1}},
			want:   2,
			wantOK: true,
		},
		{
			name:   "self loop beats cycle",
			n:      2,
			edges:  []edge{{0, 1, 1}, {1, 0, 1}, {0, 0, 5}},
			want:   5,
			wantOK: true,
		},
		{
			name: "choose heavier of two cycles",
			n:    4,
			edges: []edge{
				{0, 1, 1}, {1, 0, 1}, // mean 1
				{2, 3, 4}, {3, 2, 2}, // mean 3
			},
			want:   3,
			wantOK: true,
		},
		{
			name: "long cycle vs short cycle",
			n:    4,
			edges: []edge{
				{0, 1, 10}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}, // mean 2.5
				{1, 0, -4}, // cycle 0-1-0 mean 3
			},
			want:   3,
			wantOK: true,
		},
		{
			name:   "negative means",
			n:      2,
			edges:  []edge{{0, 1, -3}, {1, 0, -1}},
			want:   -2,
			wantOK: true,
		},
		{
			name:   "zero mean cycle",
			n:      3,
			edges:  []edge{{0, 1, 1}, {1, 2, -2}, {2, 0, 1}},
			want:   0,
			wantOK: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := oracle.NewDigraph(tt.n)
			for _, e := range tt.edges {
				g.MustAddEdge(e.from, e.to, e.weight)
			}
			mc, ok := oracle.MaxMeanCycle(g)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if !ok {
				return
			}
			if math.Abs(mc.Mean-tt.want) > 1e-9 {
				t.Errorf("Mean = %v, want %v", mc.Mean, tt.want)
			}
			checkCycleMean(t, g, mc)
		})
	}
}

// checkCycleMean verifies the reported critical cycle has the reported mean.
func checkCycleMean(t *testing.T, g *oracle.Digraph, mc oracle.MeanCycle) {
	t.Helper()
	if mc.Cycle == nil {
		t.Error("critical cycle is nil")
		return
	}
	if mc.Cycle[0] != mc.Cycle[len(mc.Cycle)-1] {
		t.Errorf("cycle %v does not close", mc.Cycle)
		return
	}
	k := len(mc.Cycle) - 1
	if k == 0 {
		t.Errorf("cycle %v has no edges", mc.Cycle)
		return
	}
	// Use the best (maximum) parallel edge, since the max-mean variant
	// would pick it.
	total := 0.0
	for i := 0; i < k; i++ {
		best := math.Inf(-1)
		for _, e := range g.Out(mc.Cycle[i]) {
			if e.To == mc.Cycle[i+1] && e.Weight > best {
				best = e.Weight
			}
		}
		if math.IsInf(best, -1) {
			t.Errorf("cycle %v uses missing edge %d->%d", mc.Cycle, mc.Cycle[i], mc.Cycle[i+1])
			return
		}
		total += best
	}
	if got := total / float64(k); math.Abs(got-mc.Mean) > 1e-6*(1+math.Abs(mc.Mean)) {
		t.Errorf("cycle %v mean = %v, reported Mean = %v", mc.Cycle, got, mc.Mean)
	}
}

// bruteMaxMeanCycle enumerates all simple cycles (n small) via DFS.
func bruteMaxMeanCycle(g *oracle.Digraph) (float64, bool) {
	n := g.N()
	best := math.Inf(-1)
	found := false
	var path []int
	onPath := make([]bool, n)

	var dfs func(start, v int, weight float64)
	dfs = func(start, v int, weight float64) {
		for _, e := range g.Out(v) {
			if e.To == start {
				mean := (weight + e.Weight) / float64(len(path))
				if mean > best {
					best = mean
				}
				found = true
				continue
			}
			// Only extend to larger node ids than start so each cycle is
			// counted from its minimum node (cheap canonicalization).
			if e.To < start || onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			path = append(path, e.To)
			dfs(start, e.To, weight+e.Weight)
			path = path[:len(path)-1]
			onPath[e.To] = false
		}
	}
	for s := 0; s < n; s++ {
		onPath[s] = true
		path = []int{s}
		dfs(s, s, 0)
		onPath[s] = false
	}
	return best, found
}

func TestMaxMeanCycleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		g := oracle.RandomDigraph(rng, n, 0.45, -4, 4)
		want, wantOK := bruteMaxMeanCycle(g)
		mc, ok := oracle.MaxMeanCycle(g)
		if ok != wantOK {
			t.Fatalf("trial %d: ok = %v, brute = %v", trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		if math.Abs(mc.Mean-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Mean = %v, brute = %v", trial, mc.Mean, want)
		}
		checkCycleMean(t, g, mc)
	}
}

func TestMaxMeanCycleMatrix(t *testing.T) {
	w := NewMatrix(3, Inf)
	w[0][1] = 2
	w[1][0] = 4
	w[1][2] = 1
	g, err := oracle.FromMatrix(w)
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := oracle.MaxMeanCycle(g)
	if !ok {
		t.Fatal("ok = false, want true")
	}
	if mc.Mean != 3 {
		t.Errorf("Mean = %v, want 3", mc.Mean)
	}
}

func TestMaxMeanCycleEmptyAndSingle(t *testing.T) {
	if _, ok := oracle.MaxMeanCycle(oracle.NewDigraph(0)); ok {
		t.Error("empty graph reported a cycle")
	}
	if _, ok := oracle.MaxMeanCycle(oracle.NewDigraph(1)); ok {
		t.Error("single node without self loop reported a cycle")
	}
}

func TestRandomStronglyConnectedIsSC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		g := oracle.RandomStronglyConnected(rng, n, 0.1, 0, 1)
		if comps := oracle.SCC(g); len(comps) != 1 {
			t.Fatalf("trial %d: %d components, want 1", trial, len(comps))
		}
	}
}
