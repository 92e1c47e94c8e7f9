package genfuzz

import (
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/scenario"
)

func exactPrecisionBug() *Oracle {
	return &Oracle{Mutate: func(s core.Solver, res *core.Result) {
		if s == core.SolverExact && len(res.ComponentPrecision) > 0 {
			res.Precision += 1e-3
		}
	}}
}

// TestShrinkPreservesPredicateAndTerminates: over the first failing seeds
// of the injected-bug stream, the minimized scenario must still satisfy
// the predicate, never be larger than the input, and the whole run must
// stay within a bounded number of oracle replays (the termination
// guarantee, made concrete).
func TestShrinkPreservesPredicateAndTerminates(t *testing.T) {
	o := exactPrecisionBug()
	cfg := DefaultConfig()
	failures := 0
	for seed := int64(1); seed <= 30 && failures < 8; seed++ {
		inst := Generate(seed, cfg)
		fs := o.Check(inst)
		if len(fs) == 0 {
			continue
		}
		failures++
		pred := o.CategoryPredicate(inst.Sound, fs[0].Category)
		min, st := Shrink(inst.Scenario, pred)
		if !pred(min) {
			t.Errorf("seed %d: shrinking lost the failure", seed)
		}
		// size() is only comparable on "custom" topologies: normalization
		// legitimately converts a named topology into its explicit link
		// list, which size() counts. Processor count must never grow.
		if min.Processors > inst.Scenario.Processors {
			t.Errorf("seed %d: shrink grew the system: %d -> %d processors", seed, inst.Scenario.Processors, min.Processors)
		}
		if inst.Scenario.Topology.Kind == "custom" && size(min) > size(inst.Scenario) {
			t.Errorf("seed %d: shrink grew the scenario: %d -> %d", seed, size(inst.Scenario), size(min))
		}
		if st.Checks > 2000 {
			t.Errorf("seed %d: %d oracle replays — shrinking is not converging", seed, st.Checks)
		}
	}
	if failures == 0 {
		t.Fatal("injected bug produced no failures to shrink")
	}
}

// TestShrinkReachesMinimalWitness: the acceptance bar — an injected
// sparse off-by-epsilon must shrink to at most 6 links. (Almost every
// seed reaches a single link; 6 is the contract.)
func TestShrinkReachesMinimalWitness(t *testing.T) {
	o := exactPrecisionBug()
	cfg := DefaultConfig()
	shrunkOne := false
	for seed := int64(1); seed <= 20; seed++ {
		inst := Generate(seed, cfg)
		fs := o.Check(inst)
		if len(fs) == 0 {
			continue
		}
		pred := o.CategoryPredicate(inst.Sound, fs[0].Category)
		min, _ := Shrink(inst.Scenario, pred)
		if got := len(min.Topology.Pairs); got > 6 {
			t.Errorf("seed %d: shrunk witness still has %d links, want <= 6", seed, got)
		}
		shrunkOne = true
	}
	if !shrunkOne {
		t.Fatal("injected bug produced no failures to shrink")
	}
}

// TestShrinkNonFailingInputUnchanged: Shrink on a passing scenario is the
// identity — it must not "minimize" something that was never failing.
func TestShrinkNonFailingInputUnchanged(t *testing.T) {
	inst := Generate(1, DefaultConfig())
	pred := (&Oracle{}).CategoryPredicate(inst.Sound, CatSolverMismatch)
	min, st := Shrink(inst.Scenario, pred)
	if min != inst.Scenario {
		t.Error("shrink rewrote a passing scenario")
	}
	if st.Accepted != 0 || st.Checks != 1 {
		t.Errorf("expected exactly one failed predicate check, got %+v", st)
	}
}

// TestShrinkAgainstStructuralPredicate exercises the passes in isolation
// from the oracle: the predicate only demands a crash on processor 0 and
// some link touching it, so everything else must melt away.
func TestShrinkAgainstStructuralPredicate(t *testing.T) {
	pred := func(s *scenario.Scenario) bool {
		if s.Faults == nil {
			return false
		}
		hasCrash := false
		for _, c := range s.Faults.Crashes {
			if c.Proc == 0 {
				hasCrash = true
			}
		}
		if !hasCrash {
			return false
		}
		if _, err := s.Build(); err != nil {
			return false
		}
		for _, p := range s.Topology.Pairs {
			if p[0] == 0 || p[1] == 0 {
				return true
			}
		}
		// Named topologies all touch processor 0.
		return s.Topology.Kind != "custom"
	}
	cfg := DefaultConfig()
	tested := 0
	for seed := int64(1); seed <= 60 && tested < 5; seed++ {
		inst := Generate(seed, cfg)
		if !pred(inst.Scenario) {
			continue
		}
		tested++
		min, _ := Shrink(inst.Scenario, pred)
		if !pred(min) {
			t.Fatalf("seed %d: predicate lost", seed)
		}
		if len(min.Topology.Pairs) > 1 {
			t.Errorf("seed %d: %d links remain, one link suffices for this predicate", seed, len(min.Topology.Pairs))
		}
		if min.Faults == nil || len(min.Faults.Crashes) == 0 {
			t.Fatalf("seed %d: crash entry gone", seed)
		}
		if len(min.Faults.Partitions) != 0 || len(min.Faults.Byzantine) != 0 {
			t.Errorf("seed %d: irrelevant fault entries survived: %+v", seed, min.Faults)
		}
	}
	if tested == 0 {
		t.Skip("no seed produced a crash on processor 0 — widen the scan")
	}
}

// TestRoundValuesPreservesBigSeeds: the value-rounding pass walks the
// scenario as a JSON document; a 63-bit seed must come back bit-exact,
// not through a float64.
func TestRoundValuesPreservesBigSeeds(t *testing.T) {
	s := Generate(3, DefaultConfig()).Scenario
	const big = int64(1)<<62 + 3
	s.Seed = big
	c, ok := roundScenario(s, 1)
	if !ok {
		t.Skip("nothing to round in this scenario")
	}
	if c.Seed != big {
		t.Errorf("seed corrupted by rounding pass: %d, want %d", c.Seed, big)
	}
}

// TestShrunkScenarioRoundTrips: the minimized scenario must survive
// encode/parse — reproducer files are useless otherwise.
func TestShrunkScenarioRoundTrips(t *testing.T) {
	o := exactPrecisionBug()
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 20; seed++ {
		inst := Generate(seed, cfg)
		fs := o.Check(inst)
		if len(fs) == 0 {
			continue
		}
		pred := o.CategoryPredicate(inst.Sound, fs[0].Category)
		min, _ := Shrink(inst.Scenario, pred)
		data, err := min.Encode()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		back, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !pred(back) {
			t.Errorf("seed %d: failure did not survive the JSON round trip", seed)
		}
		return // one witness is enough for the round-trip property
	}
	t.Fatal("injected bug produced no failures")
}
