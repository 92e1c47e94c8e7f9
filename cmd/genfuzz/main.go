// Command genfuzz generates random synchronization scenarios and
// cross-checks every solver backend, the streaming engine, the
// brute-force verifier and the baselines against each other — the
// differential fuzzing harness described in docs/fuzzing.md.
//
// Modes:
//
//	genfuzz -seed 1 -count 200            # check 200 generated instances
//	genfuzz -seed 1 -budget 15m           # check instances until the budget expires
//	genfuzz -replay out/repro-42.json     # re-check a reproducer (or golden scenario)
//	genfuzz -promote out/repro-42.json    # print the canonical golden form
//
// On a finding the instance is minimized (unless -shrink=false) and a
// reproducer JSON with the exact replay command is written under -out.
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/genfuzz"
	"clocksync/internal/scenario"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "genfuzz:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("genfuzz", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "first generator seed")
		count   = fs.Int("count", 100, "number of instances to check (ignored when -budget is set)")
		budget  = fs.Duration("budget", 0, "wall-clock budget; when set, seeds are consumed until it expires")
		shrink  = fs.Bool("shrink", true, "minimize failing instances before writing reproducers")
		outDir  = fs.String("out", "genfuzz-out", "directory for reproducer files")
		replay  = fs.String("replay", "", "re-check a reproducer or golden scenario file and exit")
		promote = fs.String("promote", "", "rewrite a reproducer file into canonical golden form on stdout and exit")
		inject  = fs.String("inject", "", "deliberately corrupt a backend to prove the harness catches it (exact-precision|auto-correction|hier-cert)")
		verbose = fs.Bool("v", false, "log every instance, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}

	oracle := &genfuzz.Oracle{}
	if *inject != "" {
		mut, err := injector(*inject)
		if err != nil {
			return 2, err
		}
		oracle.Mutate = mut
	}

	switch {
	case *promote != "":
		return doPromote(*promote)
	case *replay != "":
		return doReplay(oracle, *replay)
	default:
		return doFuzz(oracle, *seed, *count, *budget, *shrink, *outDir, *verbose)
	}
}

// injector returns a deliberate result corruption for harness self-tests:
// run with -inject and the fuzzer MUST report findings, or the oracle is
// blind.
func injector(kind string) (func(core.Solver, *core.Result), error) {
	switch kind {
	case "exact-precision":
		return func(s core.Solver, res *core.Result) {
			if s == core.SolverExact && len(res.ComponentPrecision) > 0 {
				res.Precision += 1e-3
			}
		}, nil
	case "auto-correction":
		return func(s core.Solver, res *core.Result) {
			if s == core.SolverAuto && len(res.Corrections) > 1 {
				res.Corrections[len(res.Corrections)-1] += 1e-3
			}
		}, nil
	case "hier-cert":
		return func(s core.Solver, res *core.Result) {
			if s == core.SolverHierarchical {
				for i := range res.ComponentPrecision {
					res.ComponentPrecision[i] *= 0.5
				}
			}
		}, nil
	default:
		return nil, fmt.Errorf("unknown -inject mode %q", kind)
	}
}

func doFuzz(oracle *genfuzz.Oracle, seed int64, count int, budget time.Duration, shrink bool, outDir string, verbose bool) (int, error) {
	cfg := genfuzz.DefaultConfig()
	deadline := time.Time{}
	if budget > 0 {
		// The -budget flag bounds wall time spent fuzzing; scenarios
		// themselves stay seeded and replayable.
		deadline = time.Now().Add(budget) //clocklint:allow wallclock wall-time fuzz budget, not simulation time
	}
	checked, failures := 0, 0
	for s := seed; ; s++ {
		if budget > 0 {
			if time.Now().After(deadline) { //clocklint:allow wallclock wall-time fuzz budget, not simulation time
				break
			}
		} else if checked >= count {
			break
		}
		inst := genfuzz.Generate(s, cfg)
		findings := oracle.Check(inst)
		checked++
		if verbose {
			fmt.Printf("seed %d: n=%d sound=%v findings=%d\n", s, inst.Scenario.Processors, inst.Sound, len(findings))
		}
		if len(findings) == 0 {
			continue
		}
		failures++
		fmt.Printf("FAIL seed %d (%d finding(s)):\n", s, len(findings))
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
		scen := inst.Scenario
		shrunk := false
		if shrink {
			pred := oracle.CategoryPredicate(inst.Sound, findings[0].Category)
			min, st := genfuzz.Shrink(scen, pred)
			if min != scen {
				scen = min
				shrunk = true
			}
			fmt.Printf("  shrunk to %d links, %d procs (%d reductions, %d oracle replays)\n",
				len(scen.Topology.Pairs), scen.Processors, st.Accepted, st.Checks)
			findings = oracle.Check(&genfuzz.Instance{Seed: inst.Seed, Scenario: scen, Sound: inst.Sound})
		}
		path, err := writeReproducer(outDir, inst, scen, findings, shrunk)
		if err != nil {
			return 2, err
		}
		fmt.Printf("  reproducer: %s\n  replay: %s\n", path, genfuzz.ReplayCommand(path))
	}
	fmt.Printf("genfuzz: %d instance(s) checked, %d failure(s)\n", checked, failures)
	if failures > 0 {
		return 1, nil
	}
	return 0, nil
}

func writeReproducer(dir string, inst *genfuzz.Instance, scen *scenario.Scenario, findings []genfuzz.Finding, shrunk bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rep := genfuzz.NewReproducer(inst, scen, findings, shrunk)
	data, err := rep.MarshalCanonical()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-seed%d.json", inst.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// doReplay re-checks a reproducer file — or a bare golden scenario — and
// reports its findings. A reproducer is expected to still fail; a golden
// is expected to pass; the exit status just reflects what the oracle saw.
func doReplay(oracle *genfuzz.Oracle, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 2, err
	}
	var scen *scenario.Scenario
	sound := false
	if rep, err := genfuzz.ParseReproducer(data); err == nil {
		scen, sound = rep.Scenario, rep.Sound
	} else {
		s, perr := scenario.Parse(data)
		if perr != nil {
			return 2, fmt.Errorf("%s is neither a reproducer (%v) nor a scenario (%v)", path, err, perr)
		}
		scen = s
	}
	findings := oracle.Check(&genfuzz.Instance{Seed: scen.Seed, Scenario: scen, Sound: sound})
	for _, f := range findings {
		fmt.Printf("%s\n", f)
	}
	fmt.Printf("genfuzz: replay of %s: %d finding(s)\n", path, len(findings))
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}

func doPromote(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 2, err
	}
	rep, err := genfuzz.ParseReproducer(data)
	if err != nil {
		return 2, err
	}
	golden, err := genfuzz.Promote(rep)
	if err != nil {
		return 2, err
	}
	if _, err := os.Stdout.Write(golden); err != nil {
		return 2, err
	}
	return 0, nil
}
