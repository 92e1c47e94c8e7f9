package main

import (
	"fmt"
	"math"
	"math/rand"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/scenario"
	"clocksync/internal/sim"
	"clocksync/internal/trace"
	"clocksync/internal/verify"
)

// scenarioDense is the paper's whole pipeline: a seeded scenario (n=256,
// random topology, mixed delay assumptions, burst traffic) run through
// scenario.Build, sim.Run, trace.Collect and Synchronizer.SyncSystem
// (Auto, which routes n <= 512 to the dense backend).
//
// Ops cycle through a pool of scenarios generated at set-up, each from
// its own seed, so every op pays the full pipeline on a distinct
// instance while the per-scenario message count can be checked to repeat
// exactly.
type scenarioDense struct {
	pool     []*scenario.Scenario
	messages []int64 // per pool entry; -1 until first run
	sync     *core.Synchronizer
	mopts    core.MLSOptions
	seed     int64
	next     int // index of the next op
}

const (
	scenarioN    = 256
	scenarioP    = 0.05 // extra-link probability of the random topology
	scenarioPool = 24
	scenarioK    = 4 // burst size per link direction
	checkTrials  = 4 // random alternative corrections per optimality check
	checkTol     = 1e-9
)

// scenarioAux is what the output check needs beyond the result.
type scenarioAux struct {
	exec  *model.Execution
	links []core.Link
	res   *core.Result
	entry int
}

func (w *scenarioDense) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.seed = seed
	w.pool = make([]*scenario.Scenario, scenarioPool)
	w.messages = make([]int64, scenarioPool)
	for k := range w.pool {
		w.pool[k] = genScenario(rng.Int63())
		w.messages[k] = -1
	}
	w.sync = core.NewSynchronizer()
	w.mopts = core.DefaultMLSOptions()
	// Warm-up: one op on the first scenario (caches, lazy pools, the
	// synchronizer's reusable buffers).
	out, err := w.op(0, nil)
	if err != nil {
		return err
	}
	return w.check(0, out)
}

// genScenario draws one scenario: a connected random topology whose links
// mix symmetric bounds, lower bounds only and RTT bias, each paired with a
// delay sampler whose support the assumption admits (with a margin, so
// float round-off in event times can never fake a violation).
func genScenario(seed int64) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	pairs := sim.RandomConnected(rng, scenarioN, scenarioP)
	s := &scenario.Scenario{
		Processors: scenarioN,
		Seed:       rng.Int63(),
		Topology:   scenario.Topology{Kind: "custom", Pairs: make([][2]int, len(pairs))},
		Links:      make([]scenario.LinkOverride, len(pairs)),
		Protocol:   scenario.ProtocolSpec{Kind: "burst", K: scenarioK, Spacing: 0.01, Warmup: -1},
	}
	for i, e := range pairs {
		s.Topology.Pairs[i] = [2]int{e.P, e.Q}
		lo := 0.01 + 0.04*rng.Float64()
		width := 0.005 + 0.045*rng.Float64()
		var spec scenario.LinkSpec
		switch rng.Intn(3) {
		case 0:
			spec.Delays = scenario.DelaySpec{Kind: "symmetric",
				Sampler: &scenario.SamplerSpec{Kind: "uniform", Lo: lo, Hi: lo + width}}
			spec.Assumption = scenario.AssumptionSpec{Kind: "symmetricBounds", LB: lo / 2, UB: lo + width + 0.01}
		case 1:
			spec.Delays = scenario.DelaySpec{Kind: "symmetric",
				Sampler: &scenario.SamplerSpec{Kind: "shiftedExp", Min: lo, Mean: width}}
			spec.Assumption = scenario.AssumptionSpec{Kind: "lowerOnly", LBPQ: lo / 2, LBQP: lo / 2}
		default:
			spec.Delays = scenario.DelaySpec{Kind: "biasWindow", Base: lo, Width: width}
			spec.Assumption = scenario.AssumptionSpec{Kind: "bias", B: width + 0.002}
		}
		s.Links[i] = scenario.LinkOverride{P: e.P, Q: e.Q, LinkSpec: spec}
	}
	return s
}

// passDone holds the run open until every pool scenario has run equally
// often, so the op mix is the same on every run.
func (w *scenarioDense) passDone() bool { return w.next%len(w.pool) == 0 }

func (w *scenarioDense) op(i int, tr *tracer) (*output, error) {
	entry := i % len(w.pool)
	w.next = i + 1
	root := tr.root()

	end := tr.span("scenario.build", root)
	built, err := w.pool[entry].Build()
	end()
	if err != nil {
		return nil, err
	}

	end = tr.span("sim.run", root)
	exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
	end()
	if err != nil {
		return nil, err
	}

	end = tr.span("trace.collect", root)
	tab, err := trace.Collect(exec, false)
	end()
	if err != nil {
		return nil, err
	}

	syncID, end := tr.child("core.sync", root)
	res, err := w.sync.SyncSystem(scenarioN, built.Links, tab, w.mopts,
		core.Options{Solver: core.SolverAuto, Observer: tr.phases(syncID)})
	end()
	if err != nil {
		return nil, err
	}
	return &output{
		res: resultView{res.Corrections, res.Precision},
		aux: &scenarioAux{exec: exec, links: built.Links, res: res, entry: entry},
	}, nil
}

// check certifies the result against the simulated ground truth: the
// Lemma 4.5 / Theorem 4.6 certificate must close and the realized
// worst-pair bound must equal the optimum (quality ratio 1). It also
// requires each pool scenario to produce the same message count every
// time it runs.
func (w *scenarioDense) check(i int, out *output) error {
	a := out.aux.(*scenarioAux)
	cert, err := verify.CheckOptimality(a.exec, a.links, w.mopts, a.res, checkTrials, w.seed^int64(i))
	if err != nil {
		return err
	}
	if err := cert.Ok(checkTol * (1 + math.Abs(cert.AMaxTrue))); err != nil {
		return err
	}
	if q := core.AssessQuality(a.res); math.Abs(q.Ratio-1) > checkTol {
		return fmt.Errorf("quality ratio %v, want 1 (achieved %v, optimal %v)", q.Ratio, q.Achieved, q.Optimal)
	}
	msgs, err := a.exec.Messages()
	if err != nil {
		return err
	}
	n := int64(len(msgs))
	switch prev := w.messages[a.entry]; {
	case prev < 0:
		w.messages[a.entry] = n
	case prev != n:
		return fmt.Errorf("scenario %d delivered %d messages, %d on an earlier run of the same seed", a.entry, n, prev)
	}
	return nil
}

// finish reports sim.messages, the mean messages per op over the whole
// pool (exact for a given workload seed), running any pool scenario the
// timed loop did not reach.
func (w *scenarioDense) finish(r *runStats) error {
	var total int64
	for k, n := range w.messages {
		if n < 0 {
			built, err := w.pool[k].Build()
			if err != nil {
				return err
			}
			exec, err := sim.Run(built.Net, built.Factory, built.RunCfg)
			if err != nil {
				return err
			}
			msgs, err := exec.Messages()
			if err != nil {
				return err
			}
			n = int64(len(msgs))
			w.messages[k] = n
		}
		total += n
	}
	r.layer["sim.messages"] = metric{float64(total) / float64(len(w.messages)), "count"}
	return checkCounts(r.cfg, "sim.messages", w.messages)
}

func (w *scenarioDense) close() {
	if w.sync != nil {
		w.sync.Close()
	}
}
