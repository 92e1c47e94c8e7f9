package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestMinPlusMatchesGeneric: the dispatched kernel (AVX2 on capable amd64
// hosts) writes the same bits as the portable loop for every length, any
// alignment of either slice, and adversarial values — signed zeros,
// infinities, a = +Inf, and Inf + (-Inf) = NaN.
func TestMinPlusMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.5, -2.25, math.MaxFloat64, -math.MaxFloat64, 5e-324}
	value := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	as := append([]float64{}, special...)
	as = append(as, rng.NormFloat64(), rng.NormFloat64())
	const maxLen, maxOff = 67, 3
	srcBuf := make([]float64, maxLen+maxOff)
	base := make([]float64, maxLen+maxOff)
	got := make([]float64, maxLen+maxOff)
	want := make([]float64, maxLen+maxOff)
	for n := 0; n <= maxLen; n++ {
		for off := 0; off <= maxOff; off++ {
			for _, a := range as {
				for i := range srcBuf {
					srcBuf[i] = value()
					base[i] = value()
				}
				copy(got, base)
				copy(want, base)
				srcOff := (off + n) % (maxOff + 1)
				src := srcBuf[srcOff : srcOff+n]
				minPlus(got[off:off+n], src, a)
				minPlusGeneric(want[off:off+n], src, a)
				// Elements outside the window must keep their bits too.
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d off=%d a=%v: element %d = %v (%#x), want %v (%#x); it was %v",
							n, off, a, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), base[j])
					}
				}
			}
		}
	}
}

// TestMinPlusShortSrcPanics: a source shorter than the destination is a
// bounds error, not an out-of-range read.
func TestMinPlusShortSrcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short src accepted")
		}
	}()
	minPlus(make([]float64, 8), make([]float64, 7), 0)
}
