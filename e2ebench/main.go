// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload closed-loop from a single process, one op in flight at a time,
// checks every op's output, and prints the metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// allocation, precision, set-up time); with -trace 1 the run alternates
// traced and untraced ops and reports per-layer self times and counts from
// the spans it records around each layer call, plus the tracing overhead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload scenario-dense --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// output is what one op hands to its output check.
type output struct {
	res resultView
	// aux carries workload-specific check inputs (the simulated
	// execution, the stream's mode, every node's outcome, ...).
	aux any
}

// resultView is the part of a synchronization result every workload
// reports: the corrections, aliasing the program's own slice (the
// self-test perturbs it in place), and the guaranteed precision in
// instance time units (seconds on the wire).
type resultView struct {
	corrections []float64
	precision   float64
}

// workload is one benchmark input family. setup generates the inputs from
// the seed and builds the instance (timed as setup_s); op runs one
// operation through the program's public entry points (the only timed
// region); check verifies one op's output outside the timed region.
type workload interface {
	setup(seed int64) error
	op(i int, tr *tracer) (*output, error)
	check(i int, out *output) error
	// finish runs after the timed loop: exact-count repeatability
	// checks and workload-specific per-layer figures.
	finish(r *runStats) error
	close()
}

// workloads maps the names BENCHMARK.json declares to constructors.
var workloads = map[string]func() workload{
	"scenario-dense": func() workload { return &scenarioDense{} },
	"stream-feed":    func() workload { return &streamFeed{} },
	"sparse-geo":     func() workload { return &sparseGeo{} },
	"wire-keyed":     func() workload { return &wireKeyed{} },
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // traces and the count ledger live here
	setups   int    // set-up repetitions behind the setup_s median
	// codeKey names the program that was built (a hash of the binary):
	// the count ledger only compares runs of identical code.
	codeKey string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: scenario-dense|stream-feed|sparse-geo|wire-keyed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured op time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces and the exact-count ledger")
	flag.Parse()
	cfg.setups = 3
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: -trace must be 0 or 1, got %d\n", *traceFlag)
		os.Exit(2)
	}
	key, err := executableKey()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg.codeKey = key

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, line := range rep.summary {
		fmt.Println(line)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line and the human-readable lines
// printed before it.
type report struct {
	result  result
	summary []string
}

// runStats accumulates one run's per-op measurements.
type runStats struct {
	cfg        config
	lat        []float64 // untraced op wall times, seconds
	tracedLat  []float64 // traced op wall times, seconds
	allocBytes uint64    // heap bytes allocated inside untraced ops
	precisions []float64
	attempted  int
	failed     int
	failures   []string
	tracedOps  int
	layer      map[string]metric
	notes      []string
}

func (r *runStats) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// run executes one benchmark invocation.
func run(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if cfg.seconds <= 0 || math.IsNaN(cfg.seconds) {
		return nil, fmt.Errorf("-seconds = %v, want > 0", cfg.seconds)
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}

	// Set-up: generation, instance building and warm-up, repeated so
	// setup_s is a median. Only the last instance is kept.
	var w workload
	setupSecs := make([]float64, 0, cfg.setups)
	for k := 0; k < cfg.setups; k++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		cand := mk()
		if err := cand.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		w = cand
	}
	defer w.close()
	runtime.GC()

	rs := &runStats{cfg: cfg, layer: map[string]metric{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	measure(w, rs, tr)
	if rs.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", cfg.workload)
	}
	if err := w.finish(rs); err != nil {
		rs.fail("%v", err)
	}

	rep := &report{}
	var m map[string]metric
	if !cfg.trace {
		m = endToEnd(rs, median(setupSecs))
		tail, pct, n := tailLatency(rs.lat)
		rep.summary = append(rep.summary, fmt.Sprintf(
			"%s seed=%d: latency_p50_ms=%.4g latency_tail_ms=%.4g (p%.1f of %d ops) throughput_ops_per_s=%.4g alloc_mb_per_op=%.4g precision=%.6g error_rate=%.4g (%d/%d) setup_s=%.4g",
			cfg.workload, cfg.seed, m["latency_p50_ms"].Value, tail*1e3, pct, n, m["throughput_ops_per_s"].Value,
			m["alloc_mb_per_op"].Value, m["precision"].Value, rs.errorRate(), rs.failed, rs.attempted, m["setup_s"].Value))
	} else {
		var path string
		var err error
		if m, path, err = perLayer(rs, tr); err != nil {
			return nil, err
		}
		rep.summary = append(rep.summary, fmt.Sprintf("%s seed=%d: %d traced + %d untraced ops, error_rate=%.4g, trace written to %s",
			cfg.workload, cfg.seed, len(rs.tracedLat), len(rs.lat), rs.errorRate(), path))
		for _, name := range sortedKeys(m) {
			rep.summary = append(rep.summary, fmt.Sprintf("  %-28s %14.6g %s", name, m[name].Value, m[name].Unit))
		}
	}
	// A figure that is not a finite number (every op failed, say) cannot
	// go into the result line; it fails the run instead.
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rs.fail("metric %s is %v", name, v.Value)
			m[name] = metric{0, v.Unit}
		}
	}
	rep.result = result{Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed, Metrics: m}
	for _, f := range rs.failures {
		rep.summary = append(rep.summary, "FAILED: "+f)
	}
	rep.summary = append(rep.summary, rs.notes...)
	return rep, nil
}

// errorRate is failed ops over attempted ops.
func (r *runStats) errorRate() float64 { return float64(r.failed) / float64(r.attempted) }

// measure runs ops closed-loop until cfg.seconds of untraced op time (or,
// in a traced run, of traced plus untraced op time) have accumulated. A
// workload may ask to keep going past the budget to finish a unit of
// replay (see passer).
func measure(w workload, rs *runStats, tr *tracer) {
	var ms runtime.MemStats
	var spent float64
	// The wall-clock cap keeps a pathologically slow program inside the
	// run's time limit: checks and traced ops do not count toward spent.
	wallCap := time.Now().Add(time.Duration(4*rs.cfg.seconds*float64(time.Second)) + 60*time.Second)
	for i := 0; ; i++ {
		// A traced run stops only after a whole untraced/traced pair.
		if spent >= rs.cfg.seconds && (tr == nil || i%2 == 0) {
			if p, ok := w.(passer); !ok || p.passDone() {
				break
			}
		}
		if time.Now().After(wallCap) {
			rs.notes = append(rs.notes, "stopped at the wall-clock cap before the op-time budget was spent")
			break
		}
		// A traced run repeats each input twice, untraced then traced, so
		// the two halves see the same inputs and their difference is the
		// tracing overhead.
		idx, traced := i, false
		if tr != nil {
			idx, traced = i/2, i%2 == 1
		}
		var optr *tracer
		if traced {
			optr = tr
			tr.beginOp(idx)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		out, err := w.op(idx, optr)
		dur := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		if traced {
			tr.endOp(start, dur)
		}
		rs.attempted++
		spent += dur
		if traced {
			rs.tracedLat = append(rs.tracedLat, dur)
		} else {
			rs.lat = append(rs.lat, dur)
			rs.allocBytes += ms.TotalAlloc - before
		}
		if err != nil {
			rs.fail("op %d: %v", i, err)
			continue
		}
		endCheck := optr.span("verify.check", 0)
		err = w.check(idx, out)
		endCheck()
		if traced {
			rs.tracedOps++
		}
		if err != nil {
			rs.fail("op %d output check: %v", i, err)
			continue
		}
		rs.precisions = append(rs.precisions, out.res.precision)
	}
}

// passer is implemented by workloads whose ops cycle through a fixed set
// of inputs (the scenario pool, the stream feeds): the run only stops at a
// cycle boundary, so every run weighs the inputs alike.
type passer interface {
	passDone() bool
}

// endToEnd derives the end-to-end metrics from an untraced run.
func endToEnd(rs *runStats, setup float64) map[string]metric {
	var total float64
	for _, d := range rs.lat {
		total += d
	}
	tail, _, _ := tailLatency(rs.lat)
	ops := float64(len(rs.lat))
	return map[string]metric{
		"latency_p50_ms":       {median(rs.lat) * 1e3, "ms"},
		"latency_tail_ms":      {tail * 1e3, "ms"},
		"throughput_ops_per_s": {ops / total, "1/s"},
		"alloc_mb_per_op":      {float64(rs.allocBytes) / ops / 1e6, "MB"},
		"precision":            {median(rs.precisions), "s"},
		"setup_s":              {setup, "s"},
	}
}

// tailLatency returns the highest percentile of d that has at least ten
// samples beyond it, that percentile, and the sample count. With ten or
// fewer samples there is no such percentile and the maximum (p100) is
// reported instead.
func tailLatency(d []float64) (float64, float64, int) {
	n := len(d)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

// median returns the median of d (the mean of the middle pair for even
// lengths); NaN when empty.
func median(d []float64) float64 {
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFileAtomic writes data to path via a temporary file and a rename,
// so a run killed mid-write never leaves a torn file behind.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// executableKey returns a SHA-256 of the running binary, which changes
// whenever the benchmark or the program it links changes.
func executableKey() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkCounts is the exact-count repeatability check: for one build of the
// code, counts are a function of the workload seed alone, so a run must
// reproduce what an earlier run of the same binary with the same seed
// recorded in the ledger under outDir. The first such run records them. The
// ledger is keyed by cfg.codeKey, so a change to the code that legitimately
// moves a count starts a fresh ledger instead of failing.
func checkCounts(cfg config, name string, counts []int64) error {
	if cfg.codeKey == "" {
		return fmt.Errorf("count ledger: no code key")
	}
	path := filepath.Join(cfg.outDir, "counts", cfg.codeKey, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, name))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev []int64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("count ledger %s: %w", path, err)
		}
		if !slices.Equal(prev, counts) {
			return fmt.Errorf("%s counts %v differ from %v recorded by an earlier run of this build with seed %d", name, counts, prev, cfg.seed)
		}
		return nil
	case os.IsNotExist(err):
		data, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		return writeFileAtomic(path, data)
	default:
		return err
	}
}
