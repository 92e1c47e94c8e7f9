package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"clocksync/internal/obs"
)

// tracer records the benchmark's spans around each layer call into an
// obs.Trace: the op span (Round carries the op id), a child span per layer
// call, and the core phases reported through core.Options.Observer. A nil
// *tracer records nothing, so untraced ops pay no tracing cost.
type tracer struct {
	t       *obs.Trace
	t0      time.Time // the trace's time origin, as close as this package can observe it
	op      int
	opID    obs.SpanID
	pending []func() // run by endOp, outside the timed op
}

func newTracer(name string) *tracer {
	t := obs.NewTrace("e2ebench/" + name)
	return &tracer{t: t, t0: time.Now()}
}

// beginOp allocates the span id of op i, so layer spans can parent to it
// before the op span itself is recorded by endOp.
func (tr *tracer) beginOp(i int) {
	tr.op = i
	tr.opID = tr.t.NewSpanID(-1)
}

func (tr *tracer) endOp(start time.Time, seconds float64) {
	tr.t.Add(obs.Span{Phase: "op", Proc: -1, Round: tr.op, Start: start.Sub(tr.t0).Seconds(),
		Seconds: seconds, ID: tr.opID})
	for _, fn := range tr.pending {
		fn()
	}
	tr.pending = tr.pending[:0]
}

// after defers fn to the end of the op, outside its timed region.
func (tr *tracer) after(fn func()) { tr.pending = append(tr.pending, fn) }

// root is the current op's span id (0 on a nil tracer).
func (tr *tracer) root() obs.SpanID {
	if tr == nil {
		return 0
	}
	return tr.opID
}

// span starts a wall-clock span of the current op under parent and
// returns the function that ends it.
func (tr *tracer) span(phase string, parent obs.SpanID) func() {
	_, end := tr.child(phase, parent)
	return end
}

// child is span that also returns the new span's id.
func (tr *tracer) child(phase string, parent obs.SpanID) (obs.SpanID, func()) {
	if tr == nil {
		return 0, func() {}
	}
	return tr.t.StartChild(phase, -1, tr.op, parent)
}

// phases returns the observer that records the core pipeline phases as
// children of parent; nil on a nil tracer, so core adds no timing calls.
func (tr *tracer) phases(parent obs.SpanID) obs.PhaseObserver {
	if tr == nil {
		return nil
	}
	return tr.t.ObserverChild(-1, tr.op, parent)
}

// merge folds spans recorded by the program into the current op. Their
// ids come from per-trace sequences that restart every op, so each is
// re-issued from this trace; parents outside the set (the program's round
// root, or none) are re-parented to the op span. offset shifts Start from
// the origin of the trace that recorded the span to this trace's origin.
func (tr *tracer) merge(spans []obs.Span, offsets []float64) {
	ids := make(map[obs.SpanID]obs.SpanID, len(spans))
	for _, s := range spans {
		if s.ID != 0 {
			ids[s.ID] = tr.t.NewSpanID(-1)
		}
	}
	for i, s := range spans {
		s.Start += offsets[i]
		s.Round = tr.op
		s.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = tr.opID
		}
		tr.t.Add(s)
	}
}

// selfTimes returns, per phase name, the summed self time of every span:
// its duration minus the part of its interval its child spans cover.
func selfTimes(spans []obs.Span) map[string]float64 {
	kids := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.Seconds
		if s.ID != 0 {
			self -= covered(s, kids[s.ID])
		}
		if self < 0 {
			self = 0
		}
		out[s.Phase] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent obs.Span, children []obs.Span) float64 {
	if len(children) == 0 {
		return 0
	}
	lo, hi := parent.Start, parent.Start+parent.Seconds
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.Start+c.Seconds, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// layerTimes maps span phases to the per-layer time metrics: each is the
// phase's self time summed over the traced ops, divided by their count.
// The netsync phases are the program's own spans, merged per op.
var layerTimes = []struct{ metric, phase string }{
	{"scenario.build_ms", "scenario.build"},
	{"sim.run_ms", "sim.run"},
	{"trace.collect_ms", "trace.collect"},
	{"trace.record_ms", "trace.record"},
	{"core.mls_ms", "mls"},
	{"core.estimate_ms", "estimate"},
	{"core.karp_amax_ms", "karp_amax"},
	{"core.corrections_ms", "corrections"},
	{"core.sync_self_ms", "core.sync"},
	{"netsync.dial_ms", "dial"},
	{"netsync.probe_ms", "probe"},
	{"netsync.report_ms", "report"},
	{"netsync.collect_ms", "collect"},
	{"netsync.compute_ms", "compute"},
	{"verify.check_ms", "verify.check"},
}

// layerCounts are the per-layer metrics a workload fills in from its own
// counters (finish); workloads that do not exercise the layer report 0.
var layerCounts = []struct{ metric, unit string }{
	{"sim.messages", "count"},
	{"stream.observe_ns", "ns"},
	{"stream.cached_ratio", "ratio"},
	{"stream.repaired_ratio", "ratio"},
	{"stream.batch_ratio", "ratio"},
	{"stream.cached_us_p50", "us"},
	{"stream.batch_ms_p50", "ms"},
	{"netsync.dial_retries", "count"},
	{"netsync.reconnects", "count"},
	{"netsync.deadline_expirations", "count"},
	{"netsync.auth_failures", "count"},
}

// perLayer derives the per-layer metrics of a traced run and writes the
// trace out in Chrome trace_event form (loadable in Perfetto).
func perLayer(rs *runStats, tr *tracer) (map[string]metric, string, error) {
	if rs.tracedOps == 0 {
		return nil, "", fmt.Errorf("%s: no traced op completed", rs.cfg.workload)
	}
	spans := tr.t.Spans()
	self := selfTimes(spans)
	ops := float64(rs.tracedOps)
	m := map[string]metric{}
	for _, lt := range layerTimes {
		m[lt.metric] = metric{self[lt.phase] / ops * 1e3, "ms"}
	}
	if n := float64(streamCalls*observesPerOp) * ops; self["stream.observe"] > 0 {
		m["stream.observe_ns"] = metric{self["stream.observe"] / n * 1e9, "ns"}
	}
	for _, lc := range layerCounts {
		if _, ok := m[lc.metric]; !ok {
			m[lc.metric] = metric{0, lc.unit}
		}
	}
	for name, v := range rs.layer {
		m[name] = v
	}
	m["trace.overhead_ms"] = metric{(median(rs.tracedLat) - median(rs.lat)) * 1e3, "ms"}

	var buf bytes.Buffer
	if err := tr.t.WriteChrome(&buf); err != nil {
		return nil, "", fmt.Errorf("export trace: %w", err)
	}
	path := filepath.Join(rs.cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.chrome.json", rs.cfg.workload, rs.cfg.seed))
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return nil, "", fmt.Errorf("write trace: %w", err)
	}
	return m, path, nil
}
