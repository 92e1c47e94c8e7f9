package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"clocksync/internal/model"
)

// randomMLS builds an n x n local-shift matrix. density < 1 drops directed
// entries to +Inf, which splits the system into several sync components.
func randomMLS(rng *rand.Rand, n int, density float64) [][]float64 {
	mls := make([][]float64, n)
	for i := range mls {
		mls[i] = make([]float64, n)
		for j := range mls[i] {
			if i == j {
				continue
			}
			if rng.Float64() < density {
				mls[i][j] = 0.05 + rng.Float64()
			} else {
				mls[i][j] = math.Inf(1)
			}
		}
	}
	return mls
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit-identical comparison; NaN never appears in results.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSynchronizerParallelismDeterministic asserts the documented contract
// that every Parallelism value produces bit-identical output: corrections,
// precision, component structure, and the critical cycle all match exactly
// between a serial and an 8-lane Synchronizer over randomized instances,
// both connected and split into components, plain and centered.
func TestSynchronizerParallelismDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	serial := NewSynchronizer()
	parallel := NewSynchronizer()
	defer serial.Close()
	defer parallel.Close()

	cases := []struct {
		n        int
		density  float64
		centered bool
	}{
		{5, 1, false},
		{16, 1, false},
		{16, 1, true},
		{33, 1, true},
		{64, 1, false},
		{200, 1, true},   // large enough for lane-parallel kernels
		{24, 0.2, false}, // disconnected: several sync components
		{24, 0.2, true},
		{40, 0.1, true},
	}
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			mls := randomMLS(rng, tc.n, tc.density)
			optsS := Options{Centered: tc.centered, Parallelism: 1}
			optsP := Options{Centered: tc.centered, Parallelism: 8}
			rs, errS := serial.Sync(mls, optsS)
			rp, errP := parallel.Sync(mls, optsP)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("n=%d density=%g: serial err %v vs parallel err %v", tc.n, tc.density, errS, errP)
			}
			if errS != nil {
				continue
			}
			if !sameFloats(rs.Corrections, rp.Corrections) {
				t.Errorf("n=%d density=%g centered=%v: corrections differ\nserial:   %v\nparallel: %v",
					tc.n, tc.density, tc.centered, rs.Corrections, rp.Corrections)
			}
			if rs.Precision != rp.Precision && !(math.IsInf(rs.Precision, 1) && math.IsInf(rp.Precision, 1)) {
				t.Errorf("n=%d density=%g: precision %v vs %v", tc.n, tc.density, rs.Precision, rp.Precision)
			}
			if !sameFloats(rs.ComponentPrecision, rp.ComponentPrecision) {
				t.Errorf("n=%d density=%g: component precision %v vs %v", tc.n, tc.density, rs.ComponentPrecision, rp.ComponentPrecision)
			}
			if len(rs.Components) != len(rp.Components) {
				t.Fatalf("n=%d density=%g: %d vs %d components", tc.n, tc.density, len(rs.Components), len(rp.Components))
			}
			for ci := range rs.Components {
				if !sameInts(rs.Components[ci], rp.Components[ci]) {
					t.Errorf("n=%d density=%g: component %d differs: %v vs %v",
						tc.n, tc.density, ci, rs.Components[ci], rp.Components[ci])
				}
			}
			if !sameInts(rs.CriticalCycle, rp.CriticalCycle) {
				t.Errorf("n=%d density=%g: critical cycle %v vs %v", tc.n, tc.density, rs.CriticalCycle, rp.CriticalCycle)
			}
			for i := range rs.MS {
				if !sameFloats(rs.MS[i], rp.MS[i]) {
					t.Errorf("n=%d density=%g: MS row %d differs", tc.n, tc.density, i)
					break
				}
			}
		}
	}
}

// TestSynchronizerMatchesSynchronize pins the Synchronizer to the
// package-level wrapper (and hence to the golden-tested classic pipeline)
// on randomized instances.
func TestSynchronizerMatchesSynchronize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSynchronizer()
	defer s.Close()
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(30)
		density := 1.0
		if trial%2 == 1 {
			density = 0.3
		}
		mls := randomMLS(rng, n, density)
		opts := Options{Centered: trial%3 == 0, Parallelism: 1}
		want, errW := Synchronize(mls, opts)
		got, errG := s.Sync(mls, opts)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: wrapper err %v vs Sync err %v", trial, errW, errG)
		}
		if errW != nil {
			continue
		}
		if !sameFloats(want.Corrections, got.Corrections) {
			t.Errorf("trial %d: corrections differ\nwrapper: %v\nsync:    %v", trial, want.Corrections, got.Corrections)
		}
		if want.Precision != got.Precision && !(math.IsInf(want.Precision, 1) && math.IsInf(got.Precision, 1)) {
			t.Errorf("trial %d: precision %v vs %v", trial, want.Precision, got.Precision)
		}
		if len(want.Components) != len(got.Components) {
			t.Fatalf("trial %d: %d vs %d components", trial, len(want.Components), len(got.Components))
		}
	}
}

// TestSynchronizerReuseNoAlias exercises the double-buffer contract: the
// result of a Sync call must stay intact across the next call and must not
// share backing memory with it.
func TestSynchronizerReuseNoAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSynchronizer()
	defer s.Close()
	mlsA := randomMLS(rng, 12, 1)
	mlsB := randomMLS(rng, 12, 1)

	r1, err := s.Sync(mlsA, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	corr1 := append([]float64(nil), r1.Corrections...)
	prec1 := r1.Precision
	cyc1 := append([]int(nil), r1.CriticalCycle...)

	r2, err := s.Sync(mlsB, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if &r1.Corrections[0] == &r2.Corrections[0] {
		t.Fatal("back-to-back Sync results share the corrections buffer")
	}
	if r1.MS[0][0] == r2.MS[0][0] && &r1.MS[0][0] == &r2.MS[0][0] {
		t.Fatal("back-to-back Sync results share the MS buffer")
	}
	if !sameFloats(r1.Corrections, corr1) || r1.Precision != prec1 || !sameInts(r1.CriticalCycle, cyc1) {
		t.Fatal("first result mutated by the immediately following Sync call")
	}
	if sameFloats(r1.Corrections, r2.Corrections) {
		t.Fatal("distinct inputs produced identical corrections — results alias")
	}

	// The third call recycles r1's arena; r2 must still be intact.
	corr2 := append([]float64(nil), r2.Corrections...)
	if _, err := s.Sync(mlsA, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if !sameFloats(r2.Corrections, corr2) {
		t.Fatal("second result mutated by its first following Sync call")
	}
}

// TestSynchronizerSteadyStateAllocs asserts the zero-allocation reuse
// contract at n=64 once the scratch has warmed up.
func TestSynchronizerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(11))
	s := NewSynchronizer()
	defer s.Close()
	mls := randomMLS(rng, 64, 1)
	opts := Options{Parallelism: 1}
	for warm := 0; warm < 3; warm++ {
		if _, err := s.Sync(mls, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Sync(mls, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Sync allocates %v objects per call, want 0", allocs)
	}
}

// TestSynchronizerSystemDeterministic covers the SyncSystem entry point:
// serial and parallel must agree bit-for-bit end to end, and the pooled
// SynchronizeSystem wrapper must match both.
func TestSynchronizerSystemDeterministic(t *testing.T) {
	starts := []float64{0, 1.5, -0.7, 2.2, 0.4, -1.1, 3.0, 0.9, -2.4}
	n := len(starts)
	tab := ringTrace(t, starts, 2.5)
	links := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		links = append(links, Link{P: model.ProcID(i), Q: model.ProcID((i + 1) % n), A: symBounds(t, 1, 4)})
	}
	serial := NewSynchronizer()
	parallel := NewSynchronizer()
	defer serial.Close()
	defer parallel.Close()

	mopts := DefaultMLSOptions()
	rs, err := serial.SyncSystem(n, links, tab, mopts, Options{Centered: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.SyncSystem(n, links, tab, mopts, Options{Centered: true, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := SynchronizeSystem(n, links, tab, mopts, Options{Centered: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(rs.Corrections, rp.Corrections) {
		t.Errorf("SyncSystem corrections differ across parallelism:\n%v\n%v", rs.Corrections, rp.Corrections)
	}
	if !sameFloats(rs.Corrections, rw.Corrections) {
		t.Errorf("SynchronizeSystem wrapper differs from Synchronizer:\n%v\n%v", rw.Corrections, rs.Corrections)
	}
	if rs.Precision != rp.Precision || rs.Precision != rw.Precision {
		t.Errorf("precision differs: %v %v %v", rs.Precision, rp.Precision, rw.Precision)
	}
}

// TestSynchronizeConcurrentSharedPools: concurrent pooled solves check
// worker lanes out of the process-wide set, so they never share a pool
// (whose barrier kernels would deadlock) and match the serial result bit
// for bit, on one big component and on many small ones alike.
func TestSynchronizeConcurrentSharedPools(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := [][][]float64{randomMLS(rng, 200, 1), randomMLS(rng, 60, 0.03)}
	wants := make([]*Result, len(inputs))
	for i, mls := range inputs {
		res, err := Synchronize(mls, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = res
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, mls := range inputs {
				got, err := Synchronize(mls, Options{Parallelism: 2 + c%2})
				if err == nil {
					err = compareResults(got, wants[i])
				}
				if err != nil {
					errs[c] = err
					return
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
