package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// streamFeed feeds a core.Stream a realistic observation sequence: n=128
// on a ring plus 64 seeded chords, fixed ground-truth starts, and
// shifted-exponential delays truncated inside the declared bounds, with
// library defaults (no relaxed repair). One op replays one instance's
// whole feed into a cold Stream: streamCalls calls, each observesPerOp
// Observe calls followed by one Corrections.
//
// Whether a Corrections call is served from the certified cache or by a
// batch solve depends on how far the feed has converged, so the op is the
// whole feed: every op over an instance resolves its calls with exactly
// the same cached/repaired/batch counts, and a solve the host stalls
// weighs little in a multi-second op. Ops alternate between independent
// instances and a run ends on a whole cycle over them, so the figures do
// not hinge on one instance's luck. Per-call latency by mode is a
// per-layer figure of the traced run.
type streamFeed struct {
	n     int
	inst  []streamInstance
	mopts core.MLSOptions
	next  int // index of the next op

	// Set while a traced op is in flight: the stream's observer forwards
	// the core phases to the span of the Corrections call being made.
	tr     *tracer
	parent obs.SpanID

	counts    [][3]int64 // per instance: cached, repaired, batch calls of its first op
	cachedLat []float64  // traced Corrections latency by mode, seconds
	batchLat  []float64
}

// streamInstance is one system and its observation feed.
type streamInstance struct {
	links []core.Link
	feed  []trace.Sample // streamCalls*observesPerOp observations
	snaps []streamSnap   // results of the sampled calls of the last op
}

// streamSnap is a copy of the result of one sampled Corrections call.
type streamSnap struct {
	call        int
	corrections []float64
	precision   float64
}

const (
	streamN         = 128
	streamChords    = 64
	streamInstances = 2
	streamCalls     = 3000 // Corrections calls per op
	observesPerOp   = 8    // Observe calls before each Corrections
	streamSample    = 256  // every streamSample-th call gets the bit-identity check
)

// streamAux is what the output check needs beyond the result.
type streamAux struct {
	inst   *streamInstance
	k      int      // instance index
	counts [3]int64 // cached, repaired, batch calls
}

func (w *streamFeed) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.n = streamN
	w.mopts = core.DefaultMLSOptions()
	w.inst = make([]streamInstance, streamInstances)
	w.counts = make([][3]int64, streamInstances)
	for k := range w.inst {
		inst, err := genStreamInstance(rng.Int63())
		if err != nil {
			return err
		}
		w.inst[k] = inst
		w.counts[k] = [3]int64{-1, -1, -1}
	}
	// Warm-up: a short prefix of each feed on a throwaway stream.
	for k := range w.inst {
		if _, _, err := w.replay(&w.inst[k], 64, nil); err != nil {
			return err
		}
	}
	return nil
}

// genStreamInstance draws one system (ring plus chords, start times) and
// its feed. Every link has the same delay law, a shifted exponential
// truncated to the declared upper bound, and declares the same bounds.
func genStreamInstance(seed int64) (streamInstance, error) {
	const dmin, dmean = 0.003, 0.0015
	const dmax = dmin + 20*dmean
	rng := rand.New(rand.NewSource(seed))
	var links [][2]int
	seen := map[[2]int]bool{}
	add := func(p, q int) {
		e := [2]int{min(p, q), max(p, q)}
		if p != q && !seen[e] {
			seen[e] = true
			links = append(links, e)
		}
	}
	for p := 0; p < streamN; p++ {
		add(p, (p+1)%streamN)
	}
	for len(links) < streamN+streamChords {
		add(rng.Intn(streamN), rng.Intn(streamN))
	}
	bounds, err := delay.SymmetricBounds(dmin/2, dmax)
	if err != nil {
		return streamInstance{}, err
	}
	var inst streamInstance
	inst.links = make([]core.Link, len(links))
	for i, l := range links {
		inst.links[i] = core.Link{P: model.ProcID(l[0]), Q: model.ProcID(l[1]), A: bounds}
	}
	starts := make([]float64, streamN)
	for i := range starts {
		starts[i] = rng.Float64()
	}
	// The feed: messages at increasing real times, each delay drawn by
	// rejection below dmax. A start-up sweep visits every link once, the
	// ring in order and then the chords, so the system connects the same
	// way on every seed; after it, links and directions are drawn
	// uniformly.
	inst.feed = make([]trace.Sample, streamCalls*observesPerOp)
	sweep := make([]int, 0, len(links))
	for i := 0; i < streamN; i++ {
		sweep = append(sweep, i) // links[i] is the ring link (i, i+1)
	}
	for _, c := range rng.Perm(len(links) - streamN) {
		sweep = append(sweep, streamN+c)
	}
	t := 2.0
	for k := range inst.feed {
		l := links[rng.Intn(len(links))]
		if k < len(sweep) {
			l = links[sweep[k]]
		}
		from, to := l[0], l[1]
		if rng.Intn(2) == 1 {
			from, to = to, from
		}
		d := dmin + rng.ExpFloat64()*dmean
		for d >= dmax {
			d = dmin + rng.ExpFloat64()*dmean
		}
		t += 0.001 * rng.Float64()
		inst.feed[k] = trace.Sample{From: model.ProcID(from), To: model.ProcID(to),
			SendClock: t - starts[from], RecvClock: t + d - starts[to]}
	}
	// Buffers for the sampled calls' results, so the timed op copies into
	// memory it does not allocate.
	for c := 0; c < streamCalls; c++ {
		if c%streamSample == 0 || c == streamCalls-1 {
			inst.snaps = append(inst.snaps, streamSnap{call: c, corrections: make([]float64, streamN)})
		}
	}
	return inst, nil
}

// passDone holds the run open until every instance has been replayed
// equally often.
func (w *streamFeed) passDone() bool { return w.next%len(w.inst) == 0 }

func (w *streamFeed) op(i int, tr *tracer) (*output, error) {
	k := i % len(w.inst)
	w.next = i + 1
	inst := &w.inst[k]
	res, counts, err := w.replay(inst, streamCalls, tr)
	if err != nil {
		return nil, err
	}
	return &output{
		res: resultView{res.Corrections, res.Precision},
		aux: &streamAux{inst: inst, k: k, counts: counts},
	}, nil
}

// replay feeds the first calls of inst's feed into a cold Stream, copying
// the sampled calls' results into inst.snaps, and returns the last result
// with the cached/repaired/batch call counts.
func (w *streamFeed) replay(inst *streamInstance, calls int, tr *tracer) (*core.Result, [3]int64, error) {
	var counts [3]int64
	// One lane: at n=128 a two-lane batch solve is no faster, and its
	// barriers made the op's time swing with the host's scheduling.
	opts := core.Options{Parallelism: 1}
	if tr != nil {
		// The observer is fixed at construction; it forwards each
		// Corrections call's phases to that call's span.
		w.tr = tr
		defer func() { w.tr = nil }()
		opts.Observer = obs.PhaseFunc(func(phase string, seconds float64) {
			w.tr.phases(w.parent).ObservePhase(phase, seconds)
		})
	}
	st, err := core.NewStream(w.n, inst.links, w.mopts, opts)
	if err != nil {
		return nil, counts, err
	}
	// Close releases the worker lanes; the last result stays valid.
	defer st.Close()
	root := tr.root()
	var res *core.Result
	snap := 0
	for c := 0; c < calls; c++ {
		end := tr.span("stream.observe", root)
		for _, s := range inst.feed[c*observesPerOp : (c+1)*observesPerOp] {
			if err := st.Observe(s.From, s.To, s.SendClock, s.RecvClock); err != nil {
				end()
				return nil, counts, err
			}
		}
		end()

		var before core.StreamStats
		var start time.Time
		if tr != nil {
			before, start = st.Stats(), time.Now()
		}
		var endSync func()
		w.parent, endSync = tr.child("core.sync", root)
		res, err = st.Corrections()
		endSync()
		if err != nil {
			return nil, counts, err
		}
		if tr != nil {
			d := time.Since(start).Seconds()
			switch after := st.Stats(); {
			case after.Cached > before.Cached:
				w.cachedLat = append(w.cachedLat, d)
			case after.Batch > before.Batch:
				w.batchLat = append(w.batchLat, d)
			}
		}
		if snap < len(inst.snaps) && inst.snaps[snap].call == c {
			copy(inst.snaps[snap].corrections, res.Corrections)
			inst.snaps[snap].precision = res.Precision
			snap++
		}
	}
	stats := st.Stats()
	counts = [3]int64{stats.Cached, stats.Repaired, stats.Batch}
	return res, counts, nil
}

// check requires every op over an instance to resolve its calls with the
// same mode counts, and each sampled call's corrections and precision to
// be bit-identical to a fresh batch solve over the benchmark's own table
// of the same observations. The last call is checked on the result the
// op returned.
func (w *streamFeed) check(i int, out *output) error {
	a := out.aux.(*streamAux)
	switch prev := w.counts[a.k]; {
	case prev[0] < 0:
		w.counts[a.k] = a.counts
	case prev != a.counts:
		return fmt.Errorf("instance %d calls (cached, repaired, batch) = %v, an earlier op %v", a.k, a.counts, prev)
	}
	tab := trace.NewTable(w.n, false)
	added := 0
	for j, s := range a.inst.snaps {
		for ; added < (s.call+1)*observesPerOp; added++ {
			if err := tab.Add(a.inst.feed[added]); err != nil {
				return err
			}
		}
		corr, prec := s.corrections, s.precision
		if j == len(a.inst.snaps)-1 {
			corr, prec = out.res.corrections, out.res.precision
		}
		fresh, err := core.SynchronizeSystem(w.n, a.inst.links, tab, w.mopts, core.Options{})
		if err != nil {
			return err
		}
		if math.Float64bits(fresh.Precision) != math.Float64bits(prec) {
			return fmt.Errorf("call %d: precision %v, batch solve %v", s.call, prec, fresh.Precision)
		}
		if len(corr) != w.n {
			return fmt.Errorf("call %d: %d corrections for %d processors", s.call, len(corr), w.n)
		}
		for p, c := range corr {
			if math.Float64bits(c) != math.Float64bits(fresh.Corrections[p]) {
				return fmt.Errorf("call %d: correction[%d] = %v, batch solve %v", s.call, p, c, fresh.Corrections[p])
			}
		}
	}
	return nil
}

// finish reports the mode ratios over one op per instance and the traced
// Corrections latency by mode, and checks the per-instance counts against
// earlier runs of the seed.
func (w *streamFeed) finish(r *runStats) error {
	var sum [3]int64
	for k, c := range w.counts {
		if c[0] < 0 {
			continue
		}
		for j := range sum {
			sum[j] += c[j]
		}
		r.notes = append(r.notes, fmt.Sprintf("stream-feed instance %d: per op of %d calls cached=%d repaired=%d batch=%d",
			k, streamCalls, c[0], c[1], c[2]))
		if err := checkCounts(r.cfg, fmt.Sprintf("stream.modes.%d", k), c[:]); err != nil {
			return err
		}
	}
	calls := float64(sum[0] + sum[1] + sum[2])
	if calls == 0 {
		return fmt.Errorf("stream: no op completed its check")
	}
	r.layer["stream.cached_ratio"] = metric{float64(sum[0]) / calls, "ratio"}
	r.layer["stream.repaired_ratio"] = metric{float64(sum[1]) / calls, "ratio"}
	r.layer["stream.batch_ratio"] = metric{float64(sum[2]) / calls, "ratio"}
	if len(w.cachedLat) > 0 {
		r.layer["stream.cached_us_p50"] = metric{median(w.cachedLat) * 1e6, "us"}
	}
	if len(w.batchLat) > 0 {
		r.layer["stream.batch_ms_p50"] = metric{median(w.batchLat) * 1e3, "ms"}
	}
	return nil
}

func (w *streamFeed) close() {}
