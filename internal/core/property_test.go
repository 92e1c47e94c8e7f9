package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clocksync/internal/graph"
)

// randomFeasibleMLS builds a random mls matrix guaranteed feasible: it is
// derived from a synthetic "true execution" (random starts, random delays
// within random bounds), so all cycle sums are non-negative by
// construction.
func randomFeasibleMLS(rng *rand.Rand, n int) [][]float64 {
	starts := make([]float64, n)
	for i := range starts {
		starts[i] = rng.Float64() * 3
	}
	mls := graph.NewMatrix(n, graph.Inf)
	for i := 0; i < n; i++ {
		mls[i][i] = 0
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 && n > 2 {
				continue // absent link
			}
			lb := rng.Float64() * 0.1
			ub := lb + 0.05 + rng.Float64()*0.4
			dij := lb + (ub-lb)*rng.Float64()
			dji := lb + (ub-lb)*rng.Float64()
			estIJ := dij + starts[i] - starts[j]
			estJI := dji + starts[j] - starts[i]
			mls[i][j] = math.Min(ub-estJI, estIJ-lb)
			mls[j][i] = math.Min(ub-estIJ, estJI-lb)
		}
	}
	return mls
}

// connectedPrecision runs Synchronize and returns (precision, true) when
// the instance forms a single component.
func connectedPrecision(t *testing.T, mls [][]float64) (float64, bool) {
	t.Helper()
	res, err := Synchronize(mls, Options{})
	if err != nil {
		t.Fatalf("Synchronize: %v", err)
	}
	if len(res.Components) != 1 {
		return 0, false
	}
	return res.Precision, true
}

// TestPropertyTighteningNeverHurts: decreasing any single mls entry (a
// strictly stronger local constraint) can only decrease or preserve
// A_max — more knowledge never worsens the optimal precision. (It must
// remain feasible: we only shrink toward values that keep all cycles
// non-negative by shrinking no lower than the entry's share.)
func TestPropertyTighteningNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	trials := 0
	for trials < 60 {
		n := 3 + rng.Intn(4)
		mls := randomFeasibleMLS(rng, n)
		before, ok := connectedPrecision(t, mls)
		if !ok {
			continue
		}
		// Tighten one finite off-diagonal entry, but keep feasibility: the
		// entry may not drop below -(shortest return path), or some cycle
		// would go negative. Use the ms matrix to find the slack.
		ms := globalEstimates(t, mls)
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || math.IsInf(mls[i][j], 1) {
			continue
		}
		floor := -ms[j][i] // cycle i->j->...->i must stay >= 0
		if math.IsInf(floor, -1) || floor > mls[i][j] {
			continue
		}
		tightened := graph.CloneMatrix(mls)
		tightened[i][j] = floor + (mls[i][j]-floor)*rng.Float64()
		after, ok := connectedPrecision(t, tightened)
		if !ok {
			continue
		}
		if after > before+1e-9 {
			t.Fatalf("tightening mls[%d][%d] from %v to %v raised A_max %v -> %v",
				i, j, mls[i][j], tightened[i][j], before, after)
		}
		trials++
	}
}

// TestPropertyPrecisionNonnegative: A_max >= 0 on every feasible instance
// (0 is always an admissible shift).
func TestPropertyPrecisionNonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		res, err := Synchronize(randomFeasibleMLS(rng, n), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, p := range res.ComponentPrecision {
			if p < -1e-9 {
				t.Fatalf("trial %d: negative component precision %v", trial, p)
			}
		}
	}
}

// TestPropertyCorrectionsFeasible: for every instance and both correction
// styles, the corrections satisfy the defining inequalities
// f(q) - f(p) <= A_max - ms(p,q) within each component.
func TestPropertyCorrectionsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		mls := randomFeasibleMLS(rng, n)
		for _, centered := range []bool{false, true} {
			res, err := Synchronize(mls, Options{Centered: centered})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for ci, comp := range res.Components {
				aMax := res.ComponentPrecision[ci]
				for _, p := range comp {
					for _, q := range comp {
						if p == q {
							continue
						}
						lhs := res.Corrections[q] - res.Corrections[p]
						rhs := aMax - res.MS[p][q]
						if lhs > rhs+1e-9 {
							t.Fatalf("trial %d centered=%v: f(%d)-f(%d)=%v > %v", trial, centered, q, p, lhs, rhs)
						}
					}
				}
			}
		}
	}
}

// TestPropertyRootInvariance: the guaranteed precision does not depend on
// the root choice (corrections differ, A_max does not).
func TestPropertyRootInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(577215))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		mls := randomFeasibleMLS(rng, n)
		var first float64
		for root := 0; root < n; root++ {
			res, err := Synchronize(mls, Options{Root: root})
			if err != nil {
				t.Fatalf("trial %d root %d: %v", trial, root, err)
			}
			if root == 0 {
				first = res.Precision
				continue
			}
			same := math.Abs(res.Precision-first) < 1e-9 ||
				(math.IsInf(res.Precision, 1) && math.IsInf(first, 1))
			if !same {
				t.Fatalf("trial %d: precision differs by root: %v vs %v", trial, first, res.Precision)
			}
		}
	}
}

// TestPropertyScaleEquivariance: scaling all mls entries by c > 0 scales
// A_max and the corrections by c (the problem is homogeneous).
func TestPropertyScaleEquivarianceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	f := func(rawScale uint8) bool {
		c := 0.1 + float64(rawScale)/64
		mls := randomFeasibleMLS(rng, 4)
		res1, err := Synchronize(mls, Options{})
		if err != nil {
			return false
		}
		scaled := graph.CloneMatrix(mls)
		for i := range scaled {
			for j := range scaled[i] {
				if !math.IsInf(scaled[i][j], 1) {
					scaled[i][j] *= c
				}
			}
		}
		res2, err := Synchronize(scaled, Options{})
		if err != nil {
			return false
		}
		if math.IsInf(res1.Precision, 1) {
			return math.IsInf(res2.Precision, 1)
		}
		if math.Abs(res2.Precision-c*res1.Precision) > 1e-6*(1+c) {
			return false
		}
		for p := range res1.Corrections {
			if math.Abs(res2.Corrections[p]-c*res1.Corrections[p]) > 1e-6*(1+c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMSIdempotent: GLOBAL ESTIMATES is a closure operator — a
// second application changes nothing.
func TestPropertyMSIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(69315))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		mls := randomFeasibleMLS(rng, n)
		ms := globalEstimates(t, mls)
		ms2 := globalEstimates(t, ms)
		for i := range ms {
			for j := range ms[i] {
				same := ms[i][j] == ms2[i][j] || math.Abs(ms[i][j]-ms2[i][j]) < 1e-12
				if !same {
					t.Fatalf("trial %d: ms[%d][%d] changed %v -> %v", trial, i, j, ms[i][j], ms2[i][j])
				}
			}
		}
	}
}
