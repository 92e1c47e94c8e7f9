//go:build !amd64 || race

package graph

// minPlus is the portable loop on other architectures and under the race
// detector, which does not see writes made from assembly.
func minPlus(dst, src []float64, a float64) {
	minPlusGeneric(dst, src, a)
}
