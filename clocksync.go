// Package clocksync is an instance-optimal clock synchronization library
// for message-passing systems with drift-free clocks, implementing
// Attiya, Herzberg & Rajsbaum, "Optimal Clock Synchronization under
// Different Delay Assumptions" (PODC 1993).
//
// # Model
//
// Processors have accurate (drift-free) clocks started at unknown real
// times. They exchange timestamped messages over links about which some
// delay assumption is known per link — any mixture of:
//
//   - lower and upper bounds on the delay, per direction (Bounds);
//   - lower bounds only, or no bounds at all (LowerBoundsOnly, NoBounds);
//   - a bound on the difference between delays in the two directions
//     (RTTBias);
//   - any conjunction of the above on the same link (Both).
//
// Given the observable part of an execution — for every message, the
// sender's clock at transmission and the receiver's clock at receipt —
// Synchronize computes clock corrections whose guaranteed precision is
// optimal for that very execution: no correction function can guarantee a
// smaller worst-case discrepancy over the executions indistinguishable
// from the observed one. The optimal precision itself is returned, so
// callers always know how synchronized they are.
//
// # Quick start
//
//	sys, _ := clocksync.NewSystem(2)
//	_ = sys.AddLink(0, 1, clocksync.MustSymmetricBounds(0.001, 0.005))
//	rec := clocksync.NewRecorder(2)
//	_ = rec.Observe(0, 1, sendClock, recvClock) // one call per message
//	_ = rec.Observe(1, 0, sendClock2, recvClock2)
//	res, _ := sys.Synchronize(rec)
//	// res.Corrections[p] is added to p's clock; res.Precision bounds the
//	// residual discrepancy between any two corrected clocks.
package clocksync

import (
	"fmt"
	"math"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// ProcID identifies a processor (dense 0-based index).
type ProcID = model.ProcID

// Assumption is a per-link delay assumption (see Bounds, LowerBoundsOnly,
// NoBounds, RTTBias, Both).
type Assumption = delay.Assumption

// Result is the output of Synchronize. Corrections[p] is the offset to add
// to p's clock; Precision is the optimal guaranteed bound on the residual
// discrepancy (A_max in the paper), +Inf when the observed constraints do
// not connect all processors (see Components).
type Result = core.Result

// Inf is the infinite bound/precision value.
var Inf = math.Inf(1)

// Bounds returns the Section 6.1 assumption: delays from p to q lie in
// [lbPQ, ubPQ] and delays from q to p in [lbQP, ubQP]. Use Inf for unknown
// upper bounds.
func Bounds(lbPQ, ubPQ, lbQP, ubQP float64) (Assumption, error) {
	return delay.NewBounds(delay.Range{LB: lbPQ, UB: ubPQ}, delay.Range{LB: lbQP, UB: ubQP})
}

// SymmetricBounds returns [lb, ub] delay bounds applying in both
// directions.
func SymmetricBounds(lb, ub float64) (Assumption, error) {
	return delay.SymmetricBounds(lb, ub)
}

// MustSymmetricBounds is SymmetricBounds for statically valid arguments;
// it panics on error.
func MustSymmetricBounds(lb, ub float64) Assumption {
	a, err := delay.SymmetricBounds(lb, ub)
	if err != nil {
		panic(err)
	}
	return a
}

// LowerBoundsOnly returns the model with only minimum delays known
// (model 2 of the paper).
func LowerBoundsOnly(lbPQ, lbQP float64) (Assumption, error) {
	return delay.LowerOnly(lbPQ, lbQP)
}

// NoBounds returns the fully asynchronous model: delays are only known to
// be non-negative (model 3). The worst-case precision of any algorithm is
// unbounded in this model, but Synchronize still reports the optimal
// precision for each observed execution (the paper's headline result).
func NoBounds() Assumption { return delay.NoBounds() }

// RTTBias returns the Section 6.2 assumption: any two messages traveling
// in opposite directions on the link have delays differing by at most b.
func RTTBias(b float64) (Assumption, error) { return delay.NewRTTBias(b) }

// Both conjoins several assumptions holding simultaneously on one link
// (Theorem 5.6).
func Both(parts ...Assumption) (Assumption, error) { return delay.NewIntersect(parts...) }

// System describes the network: the processor count and the delay
// assumption on every link.
type System struct {
	n     int
	links []core.Link
}

// NewSystem creates a system with n processors and no links.
func NewSystem(n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("clocksync: system needs at least one processor, got %d", n)
	}
	return &System{n: n}, nil
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

// AddLink declares a delay assumption for the link {p, q}. The
// assumption's "PQ" direction is p -> q. Multiple assumptions may be added
// for the same pair; they combine per the decomposition theorem.
func (s *System) AddLink(p, q ProcID, a Assumption) error {
	l := core.Link{P: p, Q: q, A: a}
	if err := l.Validate(s.n); err != nil {
		return err
	}
	s.links = append(s.links, l)
	return nil
}

// Links returns a copy of the declared links.
func (s *System) Links() []core.Link { return append([]core.Link(nil), s.links...) }

// Recorder accumulates message observations: for each delivered message,
// the sender's clock at transmission and the receiver's clock at receipt.
// These are exactly the view data the paper's correction functions use
// (Lemma 6.1).
type Recorder struct {
	tab *trace.Table
}

// NewRecorder creates a recorder for n processors.
func NewRecorder(n int) *Recorder {
	return &Recorder{tab: trace.NewTable(n, false)}
}

// Observe records one delivered message.
func (r *Recorder) Observe(from, to ProcID, sendClock, recvClock float64) error {
	return r.tab.Add(trace.Sample{From: from, To: to, SendClock: sendClock, RecvClock: recvClock})
}

// Observed reports the number of samples recorded between p and q in the
// p -> q direction.
func (r *Recorder) Observed(p, q ProcID) int { return r.tab.Stats(p, q).Count }

// Option tunes Synchronize.
type Option func(*core.Options)

// WithRoot fixes the processor whose correction is zero (default 0).
func WithRoot(p ProcID) Option {
	return func(o *core.Options) { o.Root = int(p) }
}

// Centered selects symmetric corrections: still optimal in guaranteed
// precision, and additionally balanced on the observed execution (e.g.
// exact skew recovery under symmetric delays). See core.Options.Centered.
func Centered() Option {
	return func(o *core.Options) { o.Centered = true }
}

// WithParallelism bounds the worker lanes used by the synchronization
// kernels: 0 (the default) means GOMAXPROCS, 1 forces the serial path.
// Results are bit-identical for every value; the knob only trades CPU for
// latency on large systems.
func WithParallelism(lanes int) Option {
	return func(o *core.Options) { o.Parallelism = lanes }
}

// Solver selects the synchronization backend (see WithSolver).
type Solver = core.Solver

// Solver values. Every solver runs the same exact path — sync components
// are found first and each is closed and solved on its own — and differ
// only in how they treat large components.
const (
	SolverAuto         = core.SolverAuto
	SolverExact        = core.SolverExact
	SolverHierarchical = core.SolverHierarchical
)

// WithSolver chooses exact or hierarchical treatment of large sync
// components. The default, SolverAuto, solves every component of up to
// 2048 processors exactly and hands larger ones to the two-level
// hierarchical solver. SolverExact solves every component exactly,
// whatever its size; SolverHierarchical uses the hierarchical solver for
// every component above the cluster size, certifying a sound (possibly
// looser) precision without ever materializing an n x n matrix. The
// input format (dense or CSR) is chosen from the input, not by this
// option. See docs/performance.md for the measurements.
func WithSolver(s Solver) Option {
	return func(o *core.Options) { o.Solver = s }
}

// WithClusterSize bounds the per-cluster subproblem size of the
// hierarchical solver (default 256). Smaller clusters lower peak memory
// and raise parallelism at the cost of a looser certified precision;
// the value also serves as the exact-vs-hierarchical escalation
// threshold when SolverHierarchical is forced.
func WithClusterSize(k int) Option {
	return func(o *core.Options) { o.ClusterSize = k }
}

// WithQuality enables post-solve quality telemetry: every successful
// solve publishes the paper's figures of merit into the process metrics
// registry — gauges quality.precision.{achieved,optimal,ratio} (realized
// worst-pair bound vs the A_max optimum; 1.0 on every fault-free solve),
// a per-neighbor gradient-precision histogram, and a per-link slack
// histogram. session, when non-empty, labels the metrics with
// session="..." so concurrent runs stay distinguishable.
func WithQuality(session string) Option {
	return func(o *core.Options) {
		o.Quality = true
		o.QualityLabel = session
	}
}

// Synchronize computes instance-optimal corrections from the recorded
// observations under the system's assumptions.
//
// The returned Result's Precision is both a guarantee and a certificate of
// optimality: every pair of corrected clocks agrees to within Precision in
// every execution consistent with the observations, and no correction
// function can promise less on this instance (Theorems 4.4 and 4.6).
func (s *System) Synchronize(r *Recorder, opts ...Option) (*Result, error) {
	if r == nil {
		return nil, fmt.Errorf("clocksync: nil recorder")
	}
	if r.tab.N() != s.n {
		return nil, fmt.Errorf("clocksync: recorder covers %d processors, system has %d", r.tab.N(), s.n)
	}
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.SynchronizeSystem(s.n, s.links, r.tab, core.DefaultMLSOptions(), o)
}

// Discrepancy evaluates max |(S_p - x_p) - (S_q - x_q)| for known start
// times: the realized synchronization error. Only test harnesses and
// simulations know true start times; production code relies on
// Result.Precision.
func Discrepancy(starts, corrections []float64) (float64, error) {
	return core.Rho(starts, corrections)
}

// MarshalJSON serializes the recorder's accumulated statistics, so
// observations can be collected in one process and synchronized in
// another (raw sample lists are not retained).
func (r *Recorder) MarshalJSON() ([]byte, error) { return r.tab.MarshalJSON() }

// UnmarshalJSON restores a recorder serialized with MarshalJSON.
func (r *Recorder) UnmarshalJSON(data []byte) error {
	tab := &trace.Table{}
	if err := tab.UnmarshalJSON(data); err != nil {
		return err
	}
	r.tab = tab
	return nil
}

// Merge folds another recorder's statistics into r (the recorders must
// cover the same processor count). Use it to combine per-site
// observations before synchronizing.
func (r *Recorder) Merge(o *Recorder) error {
	if o == nil {
		return fmt.Errorf("clocksync: nil recorder")
	}
	if o.tab.N() != r.tab.N() {
		return fmt.Errorf("clocksync: merging recorder for %d processors into one for %d", o.tab.N(), r.tab.N())
	}
	var firstErr error
	o.tab.Pairs(func(p, q ProcID, pq, qp trace.DirStats) {
		if firstErr != nil {
			return
		}
		// Pairs visits both orientations; merge only the (p,q) direction
		// each time to avoid double counting.
		if !pq.Empty() {
			if err := r.tab.MergeStats(p, q, pq); err != nil {
				firstErr = err
			}
		}
	})
	return firstErr
}
