package round

import (
	"errors"
	"math"
	"slices"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/delay"
	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// world is a hand-built execution: per-processor clock offsets and a
// delay range per directed link inside the [lo, hi] assumption bounds.
type world struct {
	n      int
	offset []float64
	edges  [][2]model.ProcID
	links  []core.Link
}

func newWorld(t *testing.T, n int, edges [][2]model.ProcID, lo, hi float64) world {
	t.Helper()
	bounds, err := delay.SymmetricBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	w := world{n: n, offset: make([]float64, n), edges: edges}
	for p := range w.offset {
		w.offset[p] = 0.37*float64(p) - 0.21*float64(p%3)
	}
	for _, e := range edges {
		w.links = append(w.links, core.Link{P: e[0], Q: e[1], A: bounds})
	}
	return w
}

// report is origin q's honest report: the estimated delays of every
// incident link's incoming direction, d~ = d + c_q - c_p (Lemma 6.1).
// Delays vary per direction but stay strictly inside [lo, hi] = [0.1, 0.9].
func (w world) report(q model.ProcID) []DirReport {
	var links []DirReport
	for _, e := range w.edges {
		p := e[0]
		if p == q {
			p = e[1]
		} else if e[1] != q {
			continue
		}
		dmin := 0.2 + 0.05*float64((int(p)*7+int(q)*3)%5)
		dmax := dmin + 0.03*float64(1+(int(p)+int(q))%4)
		shift := w.offset[q] - w.offset[p]
		links = append(links, DirReport{From: p, To: q,
			Stats: trace.DirStats{Count: 3, Min: dmin + shift, Max: dmax + shift}})
	}
	return links
}

// lie adds off(from) to every reported link of a report.
func lie(links []DirReport, off func(from model.ProcID) float64) []DirReport {
	out := make([]DirReport, len(links))
	for i, dr := range links {
		d := off(dr.From)
		dr.Stats = trace.DirStats{Count: dr.Stats.Count, Min: dr.Stats.Min + d, Max: dr.Stats.Max + d}
		out[i] = dr
	}
	return out
}

type version struct {
	origin model.ProcID
	links  []DirReport
}

func ids(v ...int) []model.ProcID {
	out := make([]model.ProcID, len(v))
	for i, p := range v {
		out[i] = model.ProcID(p)
	}
	return out
}

func complete(n int) [][2]model.ProcID {
	var edges [][2]model.ProcID
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			edges = append(edges, [2]model.ProcID{model.ProcID(p), model.ProcID(q)})
		}
	}
	return edges
}

// TestSolveMatchesDirectSolve drives hand-built report sets through
// Absorb and Solve and checks each decision against core.SynchronizeSystem
// run directly on the instance the round should have solved: the
// surviving reports' table over the reporting subgraph's links. The round
// itself solves over every declared link; a link both of whose endpoints
// went silent has +Inf m~ls, so the two must agree bit for bit.
func TestSolveMatchesDirectSolve(t *testing.T) {
	path := [][2]model.ProcID{{0, 1}, {1, 2}, {2, 3}}
	ring := [][2]model.ProcID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	type tcase struct {
		name     string
		w        world
		excision bool
		versions func(w world) []version
		verdicts []Verdict
		// survivors are the origins whose first version the expected
		// instance uses; restrict selects the reporting-subgraph links.
		survivors    []model.ProcID
		restrict     bool
		missing      []model.ProcID
		excised      []model.ProcID
		equivocators []model.ProcID
		synced       []bool
		degraded     bool
		flagged      int
		outcome      string
	}
	honest := func(origins ...int) func(w world) []version {
		return func(w world) []version {
			var vs []version
			for _, q := range origins {
				vs = append(vs, version{model.ProcID(q), w.report(model.ProcID(q))})
			}
			return vs
		}
	}
	// On a triangle with every delay 0.5 in [0, 1], processor 1 shifts
	// its link from 0 down and its link from 2 up by 0.9. Each link keeps
	// its round trip inside [0, 2] and its local-shift pair feasible
	// (slack 0.1), but the cycle 0 -> 1 -> 2 -> 0 sums to -0.3.
	spread := func(w world) []version {
		var vs []version
		for q := 0; q < 3; q++ {
			var links []DirReport
			for p := 0; p < 3; p++ {
				if p != q {
					shift := w.offset[q] - w.offset[p]
					links = append(links, DirReport{From: model.ProcID(p), To: model.ProcID(q),
						Stats: trace.DirStats{Count: 2, Min: 0.5 + shift, Max: 0.5 + shift}})
				}
			}
			if q == 1 {
				links = lie(links, func(from model.ProcID) float64 {
					if from == 0 {
						return -0.9
					}
					return 0.9
				})
			}
			vs = append(vs, version{model.ProcID(q), links})
		}
		return vs
	}
	all := func(n int) []bool {
		synced := make([]bool, n)
		for p := range synced {
			synced[p] = true
		}
		return synced
	}
	cases := []tcase{
		{
			name: "all reports present", w: newWorld(t, 4, complete(4), 0.1, 0.9),
			versions: honest(0, 1, 2, 3), verdicts: []Verdict{Stored, Stored, Stored, Stored},
			survivors: ids(0, 1, 2, 3), synced: all(4), outcome: "ok",
		},
		{
			name: "one reporter missing", w: newWorld(t, 4, ring, 0.1, 0.9),
			versions: honest(3, 0, 1), verdicts: []Verdict{Stored, Stored, Stored},
			survivors: ids(0, 1, 3), restrict: true, missing: ids(2),
			synced: all(4), degraded: true, outcome: "degraded",
		},
		{
			name: "coordinator left in a smaller component", w: newWorld(t, 4, path, 0.1, 0.9),
			versions: honest(3, 0), verdicts: []Verdict{Stored, Stored},
			survivors: ids(0, 3), restrict: true, missing: ids(1, 2),
			synced: []bool{true, true, false, false}, degraded: true, outcome: "degraded",
		},
		{
			name: "every report present, coordinator component split off", w: newWorld(t, 4, [][2]model.ProcID{{0, 1}, {2, 3}}, 0.1, 0.9),
			versions: honest(0, 1, 2, 3), verdicts: []Verdict{Stored, Stored, Stored, Stored},
			survivors: ids(0, 1, 2, 3), synced: []bool{true, true, false, false}, degraded: true, outcome: "degraded",
		},
		{
			name: "equivocator excised", w: newWorld(t, 4, complete(4), 0.1, 0.9), excision: true,
			versions: func(w world) []version {
				vs := honest(0, 1, 2, 3)(w)
				other := lie(w.report(2), func(model.ProcID) float64 { return 0.01 })
				return append(vs, version{2, w.report(2)}, version{2, other}, version{2, other})
			},
			verdicts:  []Verdict{Stored, Stored, Stored, Stored, Duplicate, Equivocation, Duplicate},
			survivors: ids(0, 1, 3), restrict: true, excised: ids(2), equivocators: ids(2),
			synced: all(4), degraded: true, flagged: 1, outcome: "degraded",
		},
		{
			name: "infeasible set resolved by the feasibility victim", w: newWorld(t, 3, complete(3), 0, 1),
			excision: true, versions: spread, verdicts: []Verdict{Stored, Stored, Stored},
			survivors: ids(0, 2), restrict: true, excised: ids(1),
			synced: all(3), degraded: true, flagged: 1, outcome: "degraded",
		},
		{
			name: "infeasible set without excision fails", w: newWorld(t, 3, complete(3), 0, 1),
			versions: spread, verdicts: []Verdict{Stored, Stored, Stored},
			survivors: ids(0, 1, 2), outcome: "failed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w
			s := New(Config{N: w.n, Links: w.links, Centered: true, Quality: true, Label: "round-test",
				Excision: tc.excision, ExcisionSlack: 1e-9})
			versions := tc.versions(w)
			first := make(map[model.ProcID][]DirReport)
			for i, v := range versions {
				got, err := s.Absorb(v.origin, v.links)
				if err != nil || got != tc.verdicts[i] {
					t.Fatalf("Absorb #%d (p%d) = %v, %v; want %v", i, v.origin, got, err, tc.verdicts[i])
				}
				if _, ok := first[v.origin]; !ok {
					first[v.origin] = v.links
				}
			}

			// The instance the round should solve, built independently.
			tab := trace.NewTable(w.n, false)
			for _, q := range tc.survivors {
				for _, dr := range first[q] {
					if err := tab.MergeStats(dr.From, dr.To, dr.Stats); err != nil {
						t.Fatal(err)
					}
				}
			}
			links := w.links
			if tc.restrict {
				links = nil
				for _, l := range w.links {
					if slices.Contains(tc.survivors, l.P) || slices.Contains(tc.survivors, l.Q) {
						links = append(links, l)
					}
				}
			}
			want, wantErr := core.SynchronizeSystem(w.n, links, tab, core.DefaultMLSOptions(),
				core.Options{Centered: true})

			d := s.Solve(nil)
			rec := d.Record
			if rec.Session != "round-test" || rec.Outcome != tc.outcome {
				t.Fatalf("record session/outcome = %q/%q, want %q/%q", rec.Session, rec.Outcome, "round-test", tc.outcome)
			}
			if tc.outcome == "failed" {
				if !errors.Is(d.Err, core.ErrInfeasible) || !errors.Is(wantErr, core.ErrInfeasible) {
					t.Fatalf("errors = %v / %v, want ErrInfeasible from both", d.Err, wantErr)
				}
				if d.Result != nil || !math.IsNaN(d.Precision) || rec.Precision != -1 || rec.Err != d.Err.Error() {
					t.Fatalf("failed decision: result %v precision %v record %+v", d.Result, d.Precision, rec)
				}
				return
			}
			if d.Err != nil || wantErr != nil {
				t.Fatalf("solve errors: round %v, direct %v", d.Err, wantErr)
			}
			for p := range want.Corrections {
				if math.Float64bits(d.Result.Corrections[p]) != math.Float64bits(want.Corrections[p]) {
					t.Fatalf("correction %d = %v, direct solve %v", p, d.Result.Corrections[p], want.Corrections[p])
				}
			}
			wantPrec := math.NaN()
			for ci, comp := range want.Components {
				if slices.Contains(comp, 0) {
					wantPrec = want.ComponentPrecision[ci]
				}
			}
			if math.Float64bits(d.Precision) != math.Float64bits(wantPrec) {
				t.Fatalf("precision = %v, direct solve %v", d.Precision, wantPrec)
			}

			if !slices.Equal(d.Missing, tc.missing) || !slices.Equal(d.Excised, tc.excised) ||
				!slices.Equal(d.Equivocators, tc.equivocators) || len(d.ExcisedLinks) != 0 {
				t.Fatalf("missing %v excised %v equivocators %v links %v; want %v %v %v none",
					d.Missing, d.Excised, d.Equivocators, d.ExcisedLinks, tc.missing, tc.excised, tc.equivocators)
			}
			if !slices.Equal(d.Synced, tc.synced) || d.Degraded != tc.degraded || d.Flagged != tc.flagged {
				t.Fatalf("synced %v degraded %v flagged %d; want %v %v %d",
					d.Synced, d.Degraded, d.Flagged, tc.synced, tc.degraded, tc.flagged)
			}
			synced := 0
			for _, ok := range tc.synced {
				if ok {
					synced++
				}
			}
			if rec.Synced != synced || rec.Missing != len(tc.missing) || rec.Excised != len(tc.excised) {
				t.Fatalf("record counts synced/missing/excised = %d/%d/%d, want %d/%d/%d",
					rec.Synced, rec.Missing, rec.Excised, synced, len(tc.missing), len(tc.excised))
			}
			if rec.Precision != d.Precision || rec.Err != "" {
				t.Fatalf("record precision %v err %q, want %v and none", rec.Precision, rec.Err, d.Precision)
			}
			qr := core.AssessQuality(want)
			if rec.Achieved != qr.Achieved || rec.Optimal != qr.Optimal || rec.Ratio != qr.Ratio {
				t.Fatalf("record quality %v/%v/%v, want %v/%v/%v",
					rec.Achieved, rec.Optimal, rec.Ratio, qr.Achieved, qr.Optimal, qr.Ratio)
			}
			if len(rec.Phases) == 0 {
				t.Fatal("record carries no phase timings")
			}
		})
	}
}

// TestAbsorbRejectsMalformed: a report that could fail the table build is
// rejected on arrival and not stored, so the origin's genuine report is
// still accepted afterwards.
func TestAbsorbRejectsMalformed(t *testing.T) {
	good := trace.DirStats{Count: 2, Min: 0.1, Max: 0.2}
	bad := []struct {
		name   string
		origin model.ProcID
		link   DirReport
	}{
		{"origin out of range", 3, DirReport{From: 0, To: 3, Stats: good}},
		{"negative origin", -1, DirReport{From: 0, To: -1, Stats: good}},
		{"link for another node", 2, DirReport{From: 0, To: 1, Stats: good}},
		{"sender out of range", 2, DirReport{From: 5, To: 2, Stats: good}},
		{"self link", 2, DirReport{From: 2, To: 2, Stats: good}},
		{"zero count", 2, DirReport{From: 1, To: 2, Stats: trace.DirStats{Min: 0.1, Max: 0.2}}},
		{"inverted", 2, DirReport{From: 1, To: 2, Stats: trace.DirStats{Count: 2, Min: 0.3, Max: 0.2}}},
		{"NaN", 2, DirReport{From: 1, To: 2, Stats: trace.DirStats{Count: 2, Min: math.NaN(), Max: 0.2}}},
		{"infinite", 2, DirReport{From: 1, To: 2, Stats: trace.DirStats{Count: 2, Min: 0.1, Max: math.Inf(1)}}},
	}
	s := New(Config{N: 3})
	for _, b := range bad {
		if v, err := s.Absorb(b.origin, []DirReport{b.link}); v != Rejected || err == nil {
			t.Errorf("%s: verdict %v, err %v; want Rejected", b.name, v, err)
		}
		if err := s.Replace(b.origin, []DirReport{b.link}); err == nil {
			t.Errorf("%s: Replace accepted it", b.name)
		}
	}
	if s.Reports() != 0 {
		t.Fatalf("rejected reports stored: %d", s.Reports())
	}
	if v, err := s.Absorb(2, []DirReport{{From: 1, To: 2, Stats: good}}); v != Stored || err != nil {
		t.Fatalf("genuine report after rejections: %v, %v", v, err)
	}
}
