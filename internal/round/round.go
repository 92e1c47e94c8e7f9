// Package round is the coordinator's round decision for the paper's
// Section 7 distributed computation, shared by every transport that runs
// it: the simulated leader and gossip protocols (internal/dist) and the
// TCP coordinator (internal/netsync). A transport moves reports, timers
// and results; this package decides what the reports it delivers mean.
//
//  1. Absorb  validates one report (origin and endpoints in range, every
//     link's To is the origin, non-empty finite statistics with
//     Min <= Max), keeps the first valid version per origin and, under
//     excision, flags an origin whose later version conflicts with the
//     stored one (equivocation).
//  2. Solve   excises what fails the consistency checks (Config.Excision),
//     assembles the statistics table from the surviving reports,
//     runs GLOBAL ESTIMATES + SHIFTS (under excision retrying without the
//     most-suspect reporter while a lie keeps the system infeasible), and
//     decides the outcome: the root's sync component, the missing and
//     excised reporters, the precision that component is guaranteed, and
//     the round's flight record.
//
// A missing report fills in with Lemma 6.1's worst case: its links keep
// only the surviving endpoint's statistics under the configured
// assumption bounds, and a link both of whose endpoints went silent has
// empty statistics, so its m~ls is +Inf and it contributes no constraint.
// The precision then covers exactly the root's sync component.
//
// The package reads no clock: phase timings reach it through the
// transport's observer, and the transport supplies the round's wall or
// simulated time.
package round

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"clocksync/internal/core"
	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

var rLog = obs.For("round")

// DirReport is the incoming-direction summary of one link, as observed by
// the reporting processor: statistics of estimated delays From -> To (To
// is always the reporter).
type DirReport struct {
	From  model.ProcID   `json:"from"`
	To    model.ProcID   `json:"to"`
	Stats trace.DirStats `json:"stats"`
}

// Config fixes one round at one coordinator.
type Config struct {
	// N is the number of processors.
	N int
	// Root is the coordinator: the correction root and the processor whose
	// sync component the precision covers.
	Root model.ProcID
	// Links carries the per-link delay assumptions.
	Links []core.Link
	// Centered and Parallelism pass through to the solve (core.Options).
	Centered    bool
	Parallelism int
	// Quality publishes the solve's quality telemetry and assesses it into
	// the flight record. Label tags both the telemetry (session="...") and
	// the record's Session.
	Quality bool
	Label   string
	// Excision enables the consistency-check outlier excision (see
	// excise); ExcisionSlack widens its intervals on both sides.
	Excision      bool
	ExcisionSlack float64
}

// Verdict classifies one absorbed report.
type Verdict int

const (
	// Stored is the origin's first valid report, kept for the solve.
	Stored Verdict = iota
	// Duplicate is a later valid version of a stored origin, dropped.
	Duplicate
	// Equivocation is a Duplicate that conflicts with the stored version
	// and newly flags its origin for excision (Config.Excision only).
	Equivocation
	// Rejected is a malformed report, dropped like a lost one.
	Rejected
)

// State collects one round's reports. It is not safe for concurrent use:
// the transport serializes every call.
type State struct {
	cfg          Config
	reports      map[model.ProcID][]DirReport // first valid version per origin
	equivocators map[model.ProcID]bool        // origins seen with conflicting versions
}

// New starts a round with no reports.
func New(cfg Config) *State {
	return &State{
		cfg:          cfg,
		reports:      make(map[model.ProcID][]DirReport),
		equivocators: make(map[model.ProcID]bool),
	}
}

// Reports returns the number of origins with a stored report.
func (s *State) Reports() int { return len(s.reports) }

// Absorb offers one report version. Reports are kept link by link rather
// than merged on arrival so excision can drop whole reports at solve
// time. A Rejected verdict comes with the reason.
func (s *State) Absorb(origin model.ProcID, links []DirReport) (Verdict, error) {
	if err := s.check(origin, links); err != nil {
		return Rejected, err
	}
	prev, stored := s.reports[origin]
	switch {
	case !stored:
		s.reports[origin] = links
		return Stored, nil
	case s.cfg.Excision && !s.equivocators[origin] && !sameLinks(prev, links):
		s.equivocators[origin] = true
		return Equivocation, nil
	}
	return Duplicate, nil
}

// Replace stores a fresher version of origin's report over the stored
// one, without the duplicate and equivocation checks: a coordinator
// re-reading its own incoming statistics at solve time. A malformed
// version leaves the stored one in place.
func (s *State) Replace(origin model.ProcID, links []DirReport) error {
	if err := s.check(origin, links); err != nil {
		return err
	}
	s.reports[origin] = links
	return nil
}

// check validates a report so that no stored report can fail the table
// assembly at solve time.
func (s *State) check(origin model.ProcID, links []DirReport) error {
	n := s.cfg.N
	if int(origin) < 0 || int(origin) >= n {
		return fmt.Errorf("round: report origin p%d out of range [0,%d)", origin, n)
	}
	for _, dr := range links {
		st := dr.Stats
		switch {
		case dr.To != origin:
			return fmt.Errorf("round: report from p%d claims stats for p%d", origin, dr.To)
		case int(dr.From) < 0 || int(dr.From) >= n || dr.From == origin:
			return fmt.Errorf("round: report from p%d carries a link from p%d", origin, dr.From)
		case st.Count <= 0 || !(st.Min <= st.Max) || math.IsInf(st.Min, 0) || math.IsInf(st.Max, 0):
			return fmt.Errorf("round: report from p%d carries invalid stats %+v for p%d->p%d",
				origin, st, dr.From, dr.To)
		}
	}
	return nil
}

// sameLinks reports whether two report versions carry identical link
// statistics. Exact float comparison is deliberate: honest re-floods are
// byte-identical copies of the frozen report, so any difference at all
// is a lie, never rounding.
func sameLinks(a, b []DirReport) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Stats.Count != b[i].Stats.Count {
			return false
		}
		if a[i].Stats.Min != b[i].Stats.Min || a[i].Stats.Max != b[i].Stats.Max { //clocklint:allow floateq
			return false
		}
	}
	return true
}

// Decision is a solved (or failed) round.
type Decision struct {
	// Result is the solve; nil when Err is set.
	Result *core.Result
	// Table is the statistics table assembled from the surviving reports.
	Table *trace.Table
	// Precision is the guaranteed precision of the root's sync component
	// (NaN when Err is set).
	Precision float64
	// Missing lists processors with no stored report, excised ones aside.
	Missing []model.ProcID
	// Excised lists reporters the consistency checks threw out, sorted;
	// Equivocators is the subset caught sending conflicting versions.
	Excised, Equivocators []model.ProcID
	// ExcisedLinks lists links whose statistics were dropped without an
	// attributable liar.
	ExcisedLinks [][2]model.ProcID
	// Synced flags the root's sync component: the processors Precision
	// covers.
	Synced []bool
	// Degraded reports a quorum outcome: reports missing or excised, link
	// statistics excised, or a root component short of all processors.
	Degraded bool
	// Flagged counts reporters the consistency checks implicated,
	// including each reporter excised to restore feasibility.
	Flagged int
	// Record is the round's flight record, filled from the outcome through
	// the quality figures. The transport adds what only it knows (round
	// number, authentication failures, wall time) and files it.
	Record obs.RoundRecord
	// Err is the solve failure, if any.
	Err error
}

// fail marks the decision failed.
func (d *Decision) fail(err error) *Decision {
	d.Err = err
	d.Record.Outcome, d.Record.Err, d.Record.Precision = "failed", err.Error(), -1
	return d
}

// Solve decides the round from the stored reports. observe, when non-nil,
// receives the solve's phase timings (they also land in the record). It
// consumes the state: excision deletes the excised reports.
func (s *State) Solve(observe obs.PhaseObserver) *Decision {
	d := &Decision{Precision: math.NaN(), Record: obs.RoundRecord{Session: s.cfg.Label}}
	rec := &d.Record
	opts := core.Options{Root: int(s.cfg.Root), Centered: s.cfg.Centered,
		Parallelism: s.cfg.Parallelism, Quality: s.cfg.Quality, QualityLabel: s.cfg.Label,
		Observer: obs.PhaseFunc(func(phase string, seconds float64) {
			rec.AddPhase(phase, seconds)
			if observe != nil {
				observe.ObservePhase(phase, seconds)
			}
		})}
	if s.cfg.Excision {
		s.excise(d)
	}
	cut := make(map[trace.LinkKey]bool, len(d.ExcisedLinks))
	for _, lk := range d.ExcisedLinks {
		cut[trace.Canon(lk[0], lk[1])] = true
	}
	for p := 0; p < s.cfg.N; p++ {
		pid := model.ProcID(p)
		if _, ok := s.reports[pid]; !ok && !slices.Contains(d.Excised, pid) {
			d.Missing = append(d.Missing, pid)
		}
	}

	// The per-link checks cannot catch a lie that keeps every individual
	// link inside its envelope but sums to a negative cycle around a
	// longer loop, so under Excision an infeasible solve excises the
	// most-suspect remaining reporter and retries; without Excision the
	// infeasibility fails the round.
	var res *core.Result
	for {
		// Assemble in processor order; DirStats merging is commutative, so
		// the table does not depend on the order reports arrived in.
		d.Table = trace.NewTable(s.cfg.N, false)
		for p := 0; p < s.cfg.N; p++ {
			for _, dr := range s.reports[model.ProcID(p)] {
				if cut[trace.Canon(dr.From, dr.To)] {
					continue
				}
				if err := d.Table.MergeStats(dr.From, dr.To, dr.Stats); err != nil {
					return d.fail(err)
				}
			}
		}
		var err error
		res, err = core.SynchronizeSystem(s.cfg.N, s.cfg.Links, d.Table, core.DefaultMLSOptions(), opts)
		if err == nil {
			break
		}
		victim, ok := model.ProcID(0), false
		if s.cfg.Excision && errors.Is(err, core.ErrInfeasible) {
			victim, ok = s.feasibilityVictim()
		}
		if !ok {
			return d.fail(err)
		}
		rLog.Debug("infeasible despite per-link checks; excising worst reporter", "victim", victim)
		delete(s.reports, victim)
		d.Excised = append(d.Excised, victim)
		d.Flagged++
	}
	slices.Sort(d.Excised)

	root := int(s.cfg.Root)
	comp, prec := []int{root}, 0.0
	for ci, c := range res.Components {
		if slices.Contains(c, root) {
			comp, prec = c, res.ComponentPrecision[ci]
			break
		}
	}
	d.Result, d.Precision = res, prec
	d.Synced = make([]bool, s.cfg.N)
	for _, p := range comp {
		d.Synced[p] = true
	}
	d.Degraded = len(d.Missing) > 0 || len(d.Excised) > 0 || len(d.ExcisedLinks) > 0 || len(comp) < s.cfg.N

	rec.Outcome = "ok"
	if d.Degraded {
		rec.Outcome = "degraded"
	}
	rec.Synced, rec.Missing, rec.Excised = len(comp), len(d.Missing), len(d.Excised)
	rec.Precision = finiteOr(prec, -1)
	if s.cfg.Quality {
		qr := core.AssessQuality(res)
		// The record stays JSON-encodable: no Inf or NaN ratio.
		rec.Achieved, rec.Optimal, rec.Ratio = qr.Achieved, qr.Optimal, finiteOr(qr.Ratio, -1)
	}
	return d
}

// finiteOr returns v, or alt when v is infinite or NaN.
func finiteOr(v, alt float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return alt
	}
	return v
}
