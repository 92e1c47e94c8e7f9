package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"clocksync/internal/obs"
)

// corrupt perturbs one correction of an op's output in place, far beyond
// any float noise, and returns the function that undoes it.
func corrupt(out *output) func() {
	x := &out.res.corrections[len(out.res.corrections)-1]
	old := *x
	*x += 10 * (1 + math.Abs(old))
	return func() { *x = old }
}

// TestChecksRejectCorruption runs each workload for a few ops and shows
// that its output check accepts the real results and rejects each of them
// once one correction is perturbed.
func TestChecksRejectCorruption(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]()
			if err := w.setup(7); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for i := 0; i < 2; i++ {
				out, err := w.op(i, nil)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if err := w.check(i, out); err != nil {
					t.Fatalf("op %d: check rejected a real result: %v", i, err)
				}
				undo := corrupt(out)
				err = w.check(i, out)
				undo()
				if err == nil {
					t.Fatalf("op %d: check accepted a corrupted result", i)
				}
				t.Logf("op %d: corrupted result rejected: %v", i, err)
			}
		})
	}
}

// TestWireCheckRejectsConsistentCorruption perturbs the same correction in
// every node's vector, so the nodes still agree: the realized discrepancy
// against the injected clock offsets must expose it.
func TestWireCheckRejectsConsistentCorruption(t *testing.T) {
	w := &wireKeyed{}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	out, err := w.op(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs := out.aux.([]wireOutcome)
	for _, wo := range outs {
		wo.out.Corrections[2] += 1
	}
	outs[2].out.Correction += 1
	if err := w.check(0, out); err == nil {
		t.Fatal("check accepted corrections that break the precision guarantee")
	}
}

// TestRunReportsDeclaredMetrics runs every workload briefly, untraced and
// traced, and requires a correct result carrying exactly the metrics
// BENCHMARK.json declares.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, wl := range spec.Workloads {
		declared = append(declared, wl.Name)
	}
	slices.Sort(declared)
	if !slices.Equal(declared, sortedKeys(workloads)) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", declared, sortedKeys(workloads))
	}
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(config{workload: name, seed: 3, seconds: 0.5, trace: traced, outDir: t.TempDir(), setups: 1, codeKey: "selftest"})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, r.Correct, r.Attempted, r.Failed, rep.summary)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCountLedgerKeyedByCode shows that the exact-count ledger catches a
// count that moves between runs of one build, and that a different build
// starts a fresh ledger instead of being held to the old counts.
func TestCountLedgerKeyedByCode(t *testing.T) {
	cfg := config{workload: "stream-feed", seed: 5, outDir: t.TempDir(), codeKey: "build-a"}
	if err := checkCounts(cfg, "modes", []int64{3, 1, 2}); err != nil {
		t.Fatalf("first run of a build: %v", err)
	}
	if err := checkCounts(cfg, "modes", []int64{3, 1, 2}); err != nil {
		t.Fatalf("repeat with equal counts: %v", err)
	}
	if err := checkCounts(cfg, "modes", []int64{4, 0, 2}); err == nil {
		t.Fatal("same build, same seed: moved counts were accepted")
	}
	cfg.codeKey = "build-b"
	if err := checkCounts(cfg, "modes", []int64{4, 0, 2}); err != nil {
		t.Fatalf("different build: %v", err)
	}
	if err := checkCounts(cfg, "modes", []int64{3, 1, 2}); err == nil {
		t.Fatal("build-b's ledger accepted moved counts")
	}
	if err := checkCounts(config{workload: "stream-feed", seed: 5, outDir: t.TempDir()}, "modes", []int64{1}); err == nil {
		t.Fatal("a ledger without a code key was accepted")
	}
}

func TestTailLatency(t *testing.T) {
	d := make([]float64, 100)
	for i := range d {
		d[i] = float64(i + 1)
	}
	if v, pct, n := tailLatency(d); v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v (p%v of %d), want 90 (p90 of 100)", v, pct, n)
	}
	if v, pct, _ := tailLatency(d[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v (p%v), want the maximum 5 (p100)", v, pct)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []obs.Span{
		{Phase: "op", Start: 0, Seconds: 10, ID: 1},
		{Phase: "a", Start: 1, Seconds: 3, ID: 2, Parent: 1},
		{Phase: "b", Start: 2, Seconds: 4, ID: 3, Parent: 1}, // overlaps a
		{Phase: "c", Start: 9, Seconds: 5, ID: 4, Parent: 1}, // runs past op
	}
	self := selfTimes(spans)
	// The children cover [1,6] and [9,10] of op: 6 of its 10 seconds.
	if got := self["op"]; math.Abs(got-4) > 1e-12 {
		t.Errorf("op self time %v, want 4", got)
	}
	if self["a"] != 3 || self["b"] != 4 || self["c"] != 5 {
		t.Errorf("leaf self times %v", self)
	}
}
