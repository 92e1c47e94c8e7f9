package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/netsync"
	"clocksync/internal/obs"
)

// wireKeyed runs whole synchronization rounds over real sockets: a
// 5-node complete netsync cluster on 127.0.0.1 with a full HMAC keyring.
// One op starts every node, waits until each holds its Outcome, and shuts
// the cluster down: dial, probe, MAC, report, compute, disseminate. The
// configured ReportDelay is a floor under the round time.
type wireKeyed struct {
	seed  int64
	links []core.Link
	keys  map[model.ProcID][]byte
	stats netsync.NetStats // summed over every node of every op
	ops   int
}

// wireOutcome is one node's view of a finished round, with the clock
// offset the benchmark injected into it (the ground truth).
type wireOutcome struct {
	offset float64 // seconds
	out    *netsync.Outcome
}

const (
	wireN        = 5
	wireProbes   = 4
	wireInterval = time.Millisecond
	wireJitter   = time.Millisecond
	// wireReportDelay floors the round time. Every round leaves about 14
	// loopback connections in TIME_WAIT for a minute; at about 30 ms a
	// round, back-to-back runs filled enough of the ephemeral port range
	// to slow dials in later runs.
	wireReportDelay = 80 * time.Millisecond
	wireTimeout     = 10 * time.Second
	wireMaxOffset   = 0.1 // seconds of injected clock skew, either way
	// wireMaxDelay is the declared upper bound on a probe's delay: far
	// above loopback delay plus jitter, so a scheduling stall on a busy
	// host cannot break the assumption.
	wireMaxDelay = 0.25
)

func (w *wireKeyed) setup(seed int64) error {
	w.seed = seed
	w.keys = netsync.DeriveKeys(wireN, seed)
	a, err := delay.SymmetricBounds(0, wireMaxDelay)
	if err != nil {
		return err
	}
	for p := 0; p < wireN; p++ {
		for q := p + 1; q < wireN; q++ {
			w.links = append(w.links, core.Link{P: model.ProcID(p), Q: model.ProcID(q), A: a})
		}
	}
	// Warm-up: one round.
	out, err := w.op(-1, nil)
	if err != nil {
		return err
	}
	w.stats, w.ops = netsync.NetStats{}, 0
	return w.check(-1, out)
}

func (w *wireKeyed) op(i int, tr *tracer) (*output, error) {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	opSeed := rng.Int63()
	offsets := make([]float64, wireN)
	traces := make([]*obs.Trace, wireN)
	traceOff := make([]float64, wireN)
	for p := range offsets {
		offsets[p] = (2*rng.Float64() - 1) * wireMaxOffset
		if tr != nil {
			traces[p] = obs.NewTrace(fmt.Sprintf("wire-node-%d", p))
			traceOff[p] = time.Since(tr.t0).Seconds()
		}
	}

	nodes := make([]*netsync.Node, 0, wireN)
	defer func() {
		for _, nd := range nodes {
			nd.Shutdown()
		}
	}()
	addrs := map[model.ProcID]string{}
	for p := 0; p < wireN; p++ {
		cfg := netsync.Config{
			ID:          model.ProcID(p),
			N:           wireN,
			Listen:      "127.0.0.1:0",
			Peers:       map[model.ProcID]string{},
			Coordinator: 0,
			Links:       w.links,
			Probes:      wireProbes,
			Interval:    wireInterval,
			ClockOffset: time.Duration(offsets[p] * float64(time.Second)),
			Jitter:      wireJitter,
			Seed:        opSeed,
			Timeout:     wireTimeout,
			ReportDelay: wireReportDelay,
			Centered:    true,
			Keys:        w.keys,
			Trace:       traces[p],
		}
		// Every node probes the nodes already up; the later ones probe it.
		for q, addr := range addrs {
			cfg.Peers[q] = addr
		}
		if p > 0 {
			cfg.CoordinatorAddr = addrs[0]
		}
		nd, err := netsync.Start(cfg)
		if err != nil {
			return nil, fmt.Errorf("start node %d: %w", p, err)
		}
		nodes = append(nodes, nd)
		addrs[model.ProcID(p)] = nd.Addr()
	}
	outs := make([]wireOutcome, wireN)
	for p, nd := range nodes {
		o, err := nd.Wait(wireTimeout)
		if err != nil {
			return nil, err
		}
		outs[p] = wireOutcome{offset: offsets[p], out: o}
	}
	for _, nd := range nodes {
		nd.Shutdown()
		st := nd.Stats()
		w.stats.DialRetries += st.DialRetries
		w.stats.Reconnects += st.Reconnects
		w.stats.DeadlineExpirations += st.DeadlineExpirations
		w.stats.AuthFailures += st.AuthFailures
	}
	nodes = nil
	w.ops++
	if tr != nil {
		tr.after(func() { mergeNodeTraces(tr, traces, traceOff) })
	}
	first := outs[0].out
	return &output{res: resultView{first.Corrections, first.Precision}, aux: outs}, nil
}

// mergeNodeTraces folds the nodes' spans into the benchmark trace. The
// coordinator's trace also holds copies of the spans the reporters shipped
// in their reports, so each span id is taken once, from the node that
// recorded it.
func mergeNodeTraces(tr *tracer, traces []*obs.Trace, traceOff []float64) {
	seen := map[obs.SpanID]bool{}
	var spans []obs.Span
	var offs []float64
	for k := range traces {
		p := (k + 1) % len(traces) // reporters first, the coordinator last
		for _, s := range traces[p].Spans() {
			if s.ID != 0 && seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			spans = append(spans, s)
			offs = append(offs, traceOff[p])
		}
	}
	tr.merge(spans, offs)
}

// check requires a clean round: no node degraded, every node holding the
// same corrections vector and its own entry of it, and the realized
// discrepancy of the corrected clocks — computable here because the
// benchmark injected the offsets — within the guaranteed precision.
func (w *wireKeyed) check(i int, out *output) error {
	prec, want := out.res.precision, out.res.corrections // node 0's
	if math.IsInf(prec, 0) || math.IsNaN(prec) {
		return fmt.Errorf("precision %v", prec)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for p, wo := range out.aux.([]wireOutcome) {
		o := wo.out
		if o.Degraded {
			return fmt.Errorf("node %d degraded (missing %v)", p, o.Missing)
		}
		if len(o.Corrections) != wireN {
			return fmt.Errorf("node %d holds %d corrections", p, len(o.Corrections))
		}
		for q, c := range o.Corrections {
			if math.Float64bits(c) != math.Float64bits(want[q]) {
				return fmt.Errorf("node %d holds correction[%d] = %v, node 0 holds %v", p, q, c, want[q])
			}
		}
		if math.Float64bits(o.Correction) != math.Float64bits(o.Corrections[p]) {
			return fmt.Errorf("node %d applied %v, its vector entry is %v", p, o.Correction, o.Corrections[p])
		}
		// Corrected clock = real time + offset + correction.
		v := wo.offset + o.Corrections[p]
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if rho := hi - lo; rho > prec+1e-9 {
		return fmt.Errorf("realized discrepancy %v exceeds precision %v", rho, prec)
	}
	return nil
}

func (w *wireKeyed) finish(r *runStats) error {
	ops := float64(w.ops)
	r.layer["netsync.dial_retries"] = metric{float64(w.stats.DialRetries) / ops, "count"}
	r.layer["netsync.reconnects"] = metric{float64(w.stats.Reconnects) / ops, "count"}
	r.layer["netsync.deadline_expirations"] = metric{float64(w.stats.DeadlineExpirations) / ops, "count"}
	r.layer["netsync.auth_failures"] = metric{float64(w.stats.AuthFailures) / ops, "count"}
	r.notes = append(r.notes, fmt.Sprintf("wire-keyed: configured ReportDelay %v is the floor under latency (%d nodes, %d probes %v apart, jitter %v)",
		wireReportDelay, wireN, wireProbes, wireInterval, wireJitter))
	return nil
}

func (w *wireKeyed) close() {}
