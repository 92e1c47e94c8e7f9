//go:build !race

package graph

// hasAVX2 reports whether both the CPU and the OS support AVX2 (the OS
// must save the YMM state, XCR0 bits 1 and 2). It is detected once.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// minPlus runs the AVX2 kernel on the largest multiple of four elements
// and the portable loop on the rest.
func minPlus(dst, src []float64, a float64) {
	src = src[:len(dst)]
	if hasAVX2 {
		n := len(dst) &^ 3
		if n > 0 {
			minPlusAVX2(dst[:n], src[:n], a)
		}
		dst, src = dst[n:], src[n:]
	}
	minPlusGeneric(dst, src, a)
}

// minPlusAVX2 is minPlus for len(dst) a multiple of 4 and
// len(src) >= len(dst).
//
//go:noescape
func minPlusAVX2(dst, src []float64, a float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
