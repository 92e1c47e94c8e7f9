package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"clocksync/internal/oracle"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(3)
	if d.N() != 3 || len(d.Data()) != 9 {
		t.Fatalf("NewDense(3): n=%d len=%d", d.N(), len(d.Data()))
	}
	d.Fill(Inf)
	d.FillDiag(0)
	d.Set(0, 2, 1.5)
	if d.At(0, 2) != 1.5 || d.At(1, 1) != 0 || !math.IsInf(d.At(2, 0), 1) {
		t.Fatalf("At/Set mismatch: %v", d.Data())
	}
	rows := d.Rows()
	rows[2][0] = -4
	if d.At(2, 0) != -4 {
		t.Fatal("Rows must alias the backing array")
	}
	// Reset within capacity keeps the backing array.
	backing := &d.Data()[0]
	d.Reset(2)
	if &d.Data()[0] != backing {
		t.Fatal("Reset reallocated within capacity")
	}
	if d.N() != 2 {
		t.Fatalf("Reset(2): n=%d", d.N())
	}
}

func TestDenseSetRowsAndTranspose(t *testing.T) {
	w := [][]float64{{0, 1, 2}, {3, 0, 5}, {6, 7, 0}}
	d, err := DenseFromRows(w)
	if err != nil {
		t.Fatal(err)
	}
	var tr Dense
	d.TransposeInto(&tr)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(i, j) != w[j][i] {
				t.Fatalf("transpose (%d,%d): got %v want %v", i, j, tr.At(i, j), w[j][i])
			}
		}
	}
	if _, err := DenseFromRows([][]float64{{0, 1}, {2}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

// matrixOf returns the dense adjacency of g with 0 diagonal, both as Dense
// and rows.
func denseOf(g *oracle.Digraph) *Dense {
	d, err := DenseFromRows(g.Matrix())
	if err != nil {
		panic(err)
	}
	return d
}

func poolsUnderTest(t *testing.T) []*Pool {
	t.Helper()
	p := NewPool(4)
	t.Cleanup(p.Close)
	return []*Pool{nil, p}
}

// oddSizes are not multiples of the min-plus kernel's 4- and 8-lane
// steps; from 197 on, a pool splits them into lanes (two, or three at 299)
// whose column shards start mid-vector.
var oddSizes = []int{3, 5, 7, 9, 13, 67, 197, 203, 299}

// TestFloydWarshallDenseMatchesClassic: the dense kernel is bit-identical
// to FloydWarshall on the row-sliced layout, for every pool size.
func TestFloydWarshallDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pools := poolsUnderTest(t)
	for trial := 0; trial < 30+len(oddSizes); trial++ {
		n := 2 + rng.Intn(40)
		if trial >= 27 {
			n += 200 // large enough for the lane-parallel branch
		}
		if trial >= 30 {
			n = oddSizes[trial-30]
		}
		g := oracle.RandomDigraph(rng, n, 0.4, -0.3, 1.0)
		want := g.Matrix()
		wantErr := oracle.FloydWarshall(want)
		for _, pool := range pools {
			d := denseOf(g)
			gotErr := FloydWarshallDense(d, pool)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("n=%d lanes=%d: err %v vs %v", n, pool.Lanes(), gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := d.At(i, j); got != want[i][j] && !(math.IsInf(got, 1) && math.IsInf(want[i][j], 1)) {
						t.Fatalf("n=%d lanes=%d: d[%d][%d] = %v, want %v (bit-identical)",
							n, pool.Lanes(), i, j, got, want[i][j])
					}
				}
			}
		}
	}
}

// TestBellmanFordDenseMatchesClassic: identical dist vectors to the
// adjacency-list Bellman-Ford built in row-major order.
func TestBellmanFordDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		g := oracle.RandomStronglyConnected(rng, n, 0.3, 0.05, 1.0)
		d := denseOf(g)
		d.FillDiag(Inf) // no self edges in the adjacency view
		dist := make([]float64, n)
		parent := make([]int, n)
		if err := BellmanFordDense(d, 0, dist, parent, make([]bool, n)); err != nil {
			t.Fatal(err)
		}
		// Row-major rebuild so edge order matches the dense scan.
		h := oracle.NewDigraph(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && !math.IsInf(d.At(i, j), 1) {
					h.MustAddEdge(i, j, d.At(i, j))
				}
			}
		}
		sp, err := oracle.BellmanFord(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if dist[v] != sp.Dist[v] {
				t.Fatalf("n=%d: dist[%d] = %v, want %v", n, v, dist[v], sp.Dist[v])
			}
			if parent[v] != sp.Parent[v] {
				t.Fatalf("n=%d: parent[%d] = %d, want %d", n, v, parent[v], sp.Parent[v])
			}
		}
	}
	// Negative cycle detection.
	neg := NewDense(2)
	neg.Fill(-1)
	neg.FillDiag(Inf)
	dist := make([]float64, 2)
	parent := make([]int, 2)
	if err := BellmanFordDense(neg, 0, dist, parent, make([]bool, 2)); err != ErrNegativeCycle {
		t.Fatalf("negative cycle: err = %v", err)
	}
	if err := BellmanFordDense(neg, 7, dist, parent, make([]bool, 2)); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestSCCDenseMatchesClassic: same partition as Tarjan on the adjacency
// list, and the same emission order.
func TestSCCDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var scratch SCCScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		g := oracle.RandomDigraph(rng, n, 0.1, 0, 1)
		// Row-major adjacency so DFS edge order matches the dense scan.
		d := denseOf(g)
		d.FillDiag(Inf)
		h := oracle.NewDigraph(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && !math.IsInf(d.At(i, j), 1) {
					h.MustAddEdge(i, j, 0)
				}
			}
		}
		want := oracle.SCC(h)
		got := SCCDense(d, &scratch)
		if got != len(want) {
			t.Fatalf("n=%d: %d components, want %d", n, got, len(want))
		}
		for id, comp := range want {
			for _, v := range comp {
				if scratch.CompOf[v] != id {
					t.Fatalf("n=%d: CompOf[%d] = %d, want %d", n, v, scratch.CompOf[v], id)
				}
			}
		}
	}
}

// TestMaxMeanCycleDenseMatchesClassic: cycle means agree with the
// adjacency-list Karp within float tolerance (the walk-table source
// differs, so ulp-level deviations are allowed), the reported cycle is
// genuinely critical, and every pool size reports the serial run's mean
// and cycle bit for bit.
func TestMaxMeanCycleDenseMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var scratch KarpScratch
	pools := poolsUnderTest(t)
	for trial := 0; trial < 30+len(oddSizes); trial++ {
		n := 2 + rng.Intn(30)
		if trial >= 28 {
			n += 200 // large enough for the lane-parallel branch
		}
		if trial >= 30 {
			n = oddSizes[trial-30]
		}
		// Complete matrix: the pipeline's actual workload.
		d := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					d.Set(i, j, rng.Float64()*2-0.5)
				}
			}
		}
		comp := make([]int, n)
		for i := range comp {
			comp[i] = i
		}
		g, err := oracle.FromMatrix(d.Rows())
		if err != nil {
			t.Fatal(err)
		}
		want, ok := oracle.MaxMeanCycle(g)
		if !ok {
			t.Fatal("classic found no cycle")
		}
		var serial MeanCycle
		for _, pool := range pools {
			got, err := MaxMeanCycleDense(d, comp, &scratch, pool)
			if err != nil || got.Cycle == nil {
				t.Fatalf("n=%d: dense found no cycle (err %v)", n, err)
			}
			if pool == nil {
				serial = MeanCycle{Mean: got.Mean, Cycle: slices.Clone(got.Cycle)}
			} else if math.Float64bits(got.Mean) != math.Float64bits(serial.Mean) || !slices.Equal(got.Cycle, serial.Cycle) {
				t.Fatalf("n=%d lanes=%d: %v %v, serial %v %v",
					n, pool.Lanes(), got.Mean, got.Cycle, serial.Mean, serial.Cycle)
			}
			if diff := math.Abs(got.Mean - want.Mean); diff > 1e-9*(1+math.Abs(want.Mean)) {
				t.Fatalf("n=%d lanes=%d: mean %v, want %v", n, pool.Lanes(), got.Mean, want.Mean)
			}
			checkDenseCycle(t, d, got)
		}
	}
}

// checkDenseCycle verifies that mc's cycle closes and achieves its mean.
func checkDenseCycle(t *testing.T, d *Dense, mc MeanCycle) {
	t.Helper()
	c := mc.Cycle
	if len(c) < 2 || c[0] != c[len(c)-1] {
		t.Fatalf("malformed cycle %v", c)
	}
	total := 0.0
	for i := 0; i+1 < len(c); i++ {
		total += d.At(c[i], c[i+1])
	}
	mean := total / float64(len(c)-1)
	if diff := math.Abs(mean - mc.Mean); diff > 1e-6*(1+math.Abs(mc.Mean)) {
		t.Fatalf("cycle %v has mean %v, reported %v", c, mean, mc.Mean)
	}
}

// TestMaxMeanCycleDenseSubset: non-trivial subsets that meet the kernel's
// precondition (a strongly connected component of a closure), and the
// error for a subset with an absent edge.
func TestMaxMeanCycleDenseSubset(t *testing.T) {
	var scratch KarpScratch
	d := NewDense(4)
	d.Fill(Inf)
	d.FillDiag(0)
	// Complete on {1, 3}; node 0 and 2 disconnected.
	d.Set(1, 3, 2)
	d.Set(3, 1, 4)
	mc, err := MaxMeanCycleDense(d, []int{1, 3}, &scratch, nil)
	if err != nil || math.Abs(mc.Mean-3) > 1e-12 {
		t.Fatalf("subset cycle: %+v err=%v, want mean 3", mc, err)
	}
	if len(mc.Cycle) != 3 || mc.Cycle[0] != mc.Cycle[len(mc.Cycle)-1] {
		t.Fatalf("subset cycle nodes: %v", mc.Cycle)
	}
	for _, v := range mc.Cycle {
		if v != 1 && v != 3 {
			t.Fatalf("cycle %v leaves the subset", mc.Cycle)
		}
	}
	// A subset with an absent edge is outside the precondition.
	if _, err := MaxMeanCycleDense(d, []int{0, 1, 3}, &scratch, nil); err == nil {
		t.Fatal("subset with a +Inf entry accepted")
	}

	// The component {1, 3, 4} of a closure: node 0 only reaches it, node 2
	// is isolated.
	c := NewDense(5)
	c.Fill(Inf)
	c.FillDiag(0)
	c.Set(0, 1, 1)
	c.Set(1, 3, 2)
	c.Set(3, 4, 1)
	c.Set(4, 1, 3)
	c.Set(3, 1, 4)
	if err := FloydWarshallDense(c, nil); err != nil {
		t.Fatal(err)
	}
	var scc SCCScratch
	SCCDense(c, &scc)
	var comp []int
	for v := 0; v < c.N(); v++ {
		if scc.CompOf[v] == scc.CompOf[1] {
			comp = append(comp, v)
		}
	}
	if !slices.Equal(comp, []int{1, 3, 4}) {
		t.Fatalf("component of node 1 = %v, want [1 3 4]", comp)
	}
	mc, err = MaxMeanCycleDense(c, comp, &scratch, nil)
	// 1 -> 4 -> 3 -> 1 over the closure: (3 + 5 + 4) / 3.
	if err != nil || math.Abs(mc.Mean-4) > 1e-12 {
		t.Fatalf("closure component cycle: %+v err=%v, want mean 4", mc, err)
	}
	checkDenseCycle(t, c, mc)
	for _, v := range mc.Cycle {
		if !slices.Contains(comp, v) {
			t.Fatalf("cycle %v leaves the component", mc.Cycle)
		}
	}

	// Singletons and empty subsets carry no cycle.
	for _, sub := range [][]int{{2}, nil} {
		if mc, err := MaxMeanCycleDense(d, sub, &scratch, nil); err != nil || mc.Cycle != nil || mc.Mean != 0 {
			t.Fatalf("subset %v: %+v err=%v, want no cycle", sub, mc, err)
		}
	}
}

func TestPoolRunAndBarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Lanes() != 4 {
		t.Fatalf("Lanes = %d", p.Lanes())
	}
	var nilPool *Pool
	if nilPool.Lanes() != 1 {
		t.Fatalf("nil pool Lanes = %d", nilPool.Lanes())
	}
	nilPool.Close() // must not panic

	// All parts run; barrier keeps phases aligned.
	const parts, rounds = 4, 50
	counts := make([]int, parts)
	bar := NewBarrier(parts)
	p.Run(parts, func(part int) {
		for r := 0; r < rounds; r++ {
			counts[part]++
			bar.Wait()
		}
	})
	for part, c := range counts {
		if c != rounds {
			t.Fatalf("part %d ran %d rounds, want %d", part, c, rounds)
		}
	}
	// Serial inline path.
	ran := 0
	nilPool.Run(3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d parts", ran)
	}
	if NewPool(1) != nil {
		t.Fatal("single-lane pool should be nil")
	}
}

// TestSharedPoolsConcurrent: concurrent callers checking pools out of the
// process-wide set never share one, so barrier-synchronized kernels on
// every lane count finish and stay bit-identical to the serial closure.
func TestSharedPoolsConcurrent(t *testing.T) {
	if AcquirePool(1) != nil {
		t.Fatal("single-lane checkout should be the nil pool")
	}
	ReleasePool(nil) // must not panic
	rng := rand.New(rand.NewSource(45))
	g := oracle.RandomDigraph(rng, 200, 0.3, 0.1, 1.0)
	want := denseOf(g)
	if err := FloydWarshallDense(want, nil); err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 6, 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pool := AcquirePool(2 + c%3)
				d := denseOf(g)
				err := FloydWarshallDense(d, pool)
				ReleasePool(pool)
				if err != nil {
					errs[c] = err
					return
				}
				for i, x := range d.Data() {
					if math.Float64bits(x) != math.Float64bits(want.Data()[i]) {
						errs[c] = fmt.Errorf("lanes %d: entry %d = %v, want %v", pool.Lanes(), i, x, want.Data()[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", c, err)
		}
	}
}
