package graph

// minPlusGeneric sets dst[j] = min(dst[j], a+src[j]) for every j in dst;
// src must be at least as long as dst. It is the inner loop of both
// O(k^3) sweeps of the pipeline, the Floyd-Warshall pivot relaxation and
// the Karp walk-table update, which call it through minPlus: this loop in
// portable builds (minplus_other.go), an AVX2 kernel that matches it bit
// for bit on amd64 (minplus_amd64.go).
//
// On amd64 Go lowers the scalar min(x, y) to MINSD x, y -> t1; MINSD t1,
// x -> t2; POR t1, t2. The AVX2 kernel applies that sequence lane-wise.
func minPlusGeneric(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for j, s := range src {
		dst[j] = min(dst[j], a+s)
	}
}
