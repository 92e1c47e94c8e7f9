package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"clocksync/internal/oracle"
)

func benchGraph(n int, p float64) *oracle.Digraph {
	rng := rand.New(rand.NewSource(7))
	return oracle.RandomStronglyConnected(rng, n, p, 0.1, 1.0)
}

func BenchmarkFloydWarshall(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		g := benchGraph(n, 0.2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.AllPairs(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkJohnson(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		g := benchGraph(n, 0.2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.AllPairsJohnson(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKarpMaxMeanCycle(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		g := benchGraph(n, 1.0) // dense: the pipeline's actual workload
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := oracle.MaxMeanCycle(g); !ok {
					b.Fatal("no cycle")
				}
			}
		})
	}
}

func BenchmarkBellmanFord(b *testing.B) {
	g := benchGraph(128, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.BellmanFord(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCC(b *testing.B) {
	g := benchGraph(256, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if comps := oracle.SCC(g); len(comps) == 0 {
			b.Fatal("no components")
		}
	}
}

// Dense-kernel counterparts: same workloads on the flat matrix layout with
// reused scratch, for direct comparison against the classic benchmarks
// above.

func BenchmarkFloydWarshallDense(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		g := benchGraph(n, 0.2)
		src := denseOf(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := NewDense(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.CopyFrom(src)
				if err := FloydWarshallDense(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKarpMaxMeanCycleDense(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		g := benchGraph(n, 1.0)
		src := denseOf(g)
		comp := make([]int, n)
		for i := range comp {
			comp[i] = i
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var scratch KarpScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mc, err := MaxMeanCycleDense(src, comp, &scratch, nil); err != nil || mc.Cycle == nil {
					b.Fatalf("no cycle: %v", err)
				}
			}
		})
	}
}

func BenchmarkBellmanFordDense(b *testing.B) {
	g := benchGraph(128, 0.3)
	src := denseOf(g)
	src.FillDiag(Inf)
	dist := make([]float64, 128)
	parent := make([]int, 128)
	dirty := make([]bool, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BellmanFordDense(src, 0, dist, parent, dirty); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCCDense(b *testing.B) {
	g := benchGraph(256, 0.05)
	src := denseOf(g)
	var scratch SCCScratch
	SCCDense(src, &scratch) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nc := SCCDense(src, &scratch); nc == 0 {
			b.Fatal("no components")
		}
	}
}
