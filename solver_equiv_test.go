package clocksync_test

// Solver equivalence on the repository's real workloads: every reference
// scenario (all n <= 256, so every solver setting takes the exact path)
// must reproduce the results pinned from the removed whole-matrix dense
// backend, produce bit-identical results under SolverAuto, SolverExact and
// SolverHierarchical, and pass the brute-force optimality certificate
// from internal/verify.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"clocksync"
	"clocksync/internal/core"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// solverScenarios are the reference workloads: the example-program
// scenarios plus a 16x16 torus, the largest (n = 256) instance on which
// every solver setting still takes the exact path.
var solverScenarios = []struct {
	name string
	json string
	opts core.Options
}{
	{"wanmix", `{
		"processors": 8, "seed": 1993, "startSpread": 3,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.02, "ub": 0.06},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.02, "hi": 0.06}}
		},
		"links": [
			{"p": 1, "q": 2,
			 "assumption": {"kind": "bias", "b": 0.01},
			 "delays": {"kind": "biasWindow", "base": 0.08, "width": 0.01}},
			{"p": 3, "q": 4,
			 "assumption": {"kind": "lowerOnly", "lbPQ": 0.03, "lbQP": 0.03},
			 "delays": {"kind": "symmetric", "sampler": {"kind": "shiftedExp", "min": 0.03, "mean": 0.05}}},
			{"p": 5, "q": 6,
			 "assumption": {"kind": "and", "parts": [
				{"kind": "symmetricBounds", "lb": 0.0, "ub": 0.2},
				{"kind": "bias", "b": 0.015}]},
			 "delays": {"kind": "biasWindow", "base": 0.05, "width": 0.015}}
		],
		"protocol": {"kind": "burst", "k": 6, "spacing": 0.004, "warmup": -1}
	}`, core.Options{Centered: true}},
	{"faulty-observed", `{
		"processors": 6, "seed": 42, "startSpread": 1,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.03, "ub": 0.09},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.03, "hi": 0.09}}
		},
		"protocol": {"kind": "burst", "k": 1, "warmup": -1},
		"faults": {"crashes": [{"proc": 5, "at": 2.2}]}
	}`, core.Options{Centered: true}},
	{"leadersync", `{
		"processors": 9, "seed": 7, "startSpread": 2,
		"topology": {"kind": "grid", "w": 3, "h": 3},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.03, "ub": 0.09},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.03, "hi": 0.09}}
		},
		"protocol": {"kind": "burst", "k": 1, "warmup": -1}
	}`, core.Options{Root: 4}},
	{"cli-starter", `{
		"processors": 4, "seed": 42, "startSpread": 2,
		"topology": {"kind": "ring"},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.01, "ub": 0.05},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.01, "hi": 0.05}}
		},
		"protocol": {"kind": "burst", "k": 4, "spacing": 0.005, "warmup": -1}
	}`, core.Options{}},
	{"torus-256", `{
		"processors": 256, "seed": 11, "startSpread": 2,
		"topology": {"kind": "torus", "w": 16, "h": 16},
		"defaultLink": {
			"assumption": {"kind": "symmetricBounds", "lb": 0.01, "ub": 0.05},
			"delays": {"kind": "symmetric", "sampler": {"kind": "uniform", "lo": 0.01, "hi": 0.05}}
		},
		"protocol": {"kind": "burst", "k": 1, "warmup": -1}
	}`, core.Options{Centered: true}},
}

// TestSolverBackendsAgreeOnScenarios replays every reference scenario
// through every solver setting. The exact path must reproduce the digest
// pinned from the removed whole-matrix dense backend, SolverAuto and
// SolverHierarchical (every component fits the default cluster size, so
// it resolves to the exact path) must agree with it bit for bit, and the
// exact result must pass the brute-force optimality certificate.
func TestSolverBackendsAgreeOnScenarios(t *testing.T) {
	pinned := loadScenarioPins(t)
	for _, c := range solverScenarios {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc, err := scenario.Parse([]byte(c.json))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			built, err := sc.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			msgs, err := exec.Messages()
			if err != nil {
				t.Fatalf("messages: %v", err)
			}
			tab := trace.NewTable(sc.Processors, false)
			for _, m := range msgs {
				s := trace.Sample{From: m.From, To: m.To, SendClock: m.SendClock, RecvClock: m.RecvClock}
				if err := tab.Add(s); err != nil {
					t.Fatalf("table: %v", err)
				}
			}

			exactOpts := c.opts
			exactOpts.Solver = core.SolverExact
			want, err := core.SynchronizeSystem(sc.Processors, built.Links, tab, core.DefaultMLSOptions(), exactOpts)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if got := scenarioDigest(want); got != pinned[c.name] {
				t.Fatalf("exact digest %s, pinned from the dense backend %s", got, pinned[c.name])
			}
			for _, solver := range []core.Solver{core.SolverAuto, core.SolverHierarchical} {
				opts := c.opts
				opts.Solver = solver
				got, err := core.SynchronizeSystem(sc.Processors, built.Links, tab, core.DefaultMLSOptions(), opts)
				if err != nil {
					t.Fatalf("%v: %v", solver, err)
				}
				if !bitEqual(got.Precision, want.Precision) {
					t.Fatalf("%v: precision %v, exact %v", solver, got.Precision, want.Precision)
				}
				for p := range want.Corrections {
					if !bitEqual(got.Corrections[p], want.Corrections[p]) {
						t.Fatalf("%v: correction p%d = %v, exact %v", solver, p, got.Corrections[p], want.Corrections[p])
					}
				}
				if len(got.Components) != len(want.Components) {
					t.Fatalf("%v: %d components, exact %d", solver, len(got.Components), len(want.Components))
				}
			}

			// The exact result must pass the paper-level certificate: the
			// reported precision equals the true A_max, the corrections are
			// admissible, and random alternatives never beat the optimum.
			if err := verify.CheckAdmissible(exec, built.Links, core.DefaultMLSOptions()); err != nil {
				t.Fatalf("execution not admissible: %v", err)
			}
			trials := 50
			if sc.Processors > 64 {
				trials = 5 // TrueMS is O(n^3); keep the big scenario quick
			}
			cert, err := verify.CheckOptimality(exec, built.Links, core.DefaultMLSOptions(), want, trials, 1)
			if err != nil {
				t.Fatalf("certificate: %v", err)
			}
			if err := cert.Ok(1e-6); err != nil {
				t.Fatalf("exact result fails the optimality certificate: %v", err)
			}
		})
	}
}

// scenarioPinFile holds one digest per reference scenario, recorded from
// the whole-matrix dense backend before the component-first exact path
// replaced it. It has no -update mode: the recording backend is gone.
const scenarioPinFile = "internal/core/testdata/exact-pinned-scenarios.golden"

// loadScenarioPins reads scenarioPinFile: one "<scenario> <digest>" line
// per reference scenario.
func loadScenarioPins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(scenarioPinFile)
	if err != nil {
		t.Fatalf("pinned golden: %v", err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("pinned golden: malformed line %q", line)
		}
		pinned[fields[0]] = fields[1]
	}
	return pinned
}

// scenarioDigest hashes the bit patterns of corrections, precision,
// per-component precision, the component partition and the in-component
// m~s entries — the same digest internal/core pins for its own cases.
func scenarioDigest(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	floats(res.Corrections)
	word(math.Float64bits(res.Precision))
	floats(res.ComponentPrecision)
	word(uint64(len(res.Components)))
	for _, comp := range res.Components {
		word(uint64(len(comp)))
		for _, p := range comp {
			word(uint64(p))
		}
	}
	if res.MS != nil {
		for _, comp := range res.Components {
			for _, p := range comp {
				for _, q := range comp {
					word(math.Float64bits(res.MS[p][q]))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestPublicSolverOptions exercises WithSolver and WithClusterSize at the
// API surface: exact and hierarchical settings must agree bit for bit
// through System.Synchronize while every component fits a cluster.
func TestPublicSolverOptions(t *testing.T) {
	sys, err := clocksync.NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := sys.AddLink(clocksync.ProcID(p), clocksync.ProcID((p+1)%3), clocksync.MustSymmetricBounds(0.001, 0.005)); err != nil {
			t.Fatal(err)
		}
	}
	rec := clocksync.NewRecorder(3)
	for p := 0; p < 3; p++ {
		q := (p + 1) % 3
		base := 10.0 + float64(p)
		if err := rec.Observe(clocksync.ProcID(p), clocksync.ProcID(q), base, base+0.003); err != nil {
			t.Fatal(err)
		}
		if err := rec.Observe(clocksync.ProcID(q), clocksync.ProcID(p), base, base+0.004); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sys.Synchronize(rec, clocksync.WithSolver(clocksync.SolverExact))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Synchronize(rec,
		clocksync.WithSolver(clocksync.SolverHierarchical),
		clocksync.WithClusterSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Precision, want.Precision) {
		t.Fatalf("precision %v vs %v", got.Precision, want.Precision)
	}
	for p := range want.Corrections {
		if !bitEqual(got.Corrections[p], want.Corrections[p]) {
			t.Fatalf("correction p%d: %v vs %v", p, got.Corrections[p], want.Corrections[p])
		}
	}
}
