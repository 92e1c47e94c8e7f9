package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"clocksync/internal/graph"
)

// The whole-matrix dense backend (global Floyd-Warshall closure, SCC of
// the closure, subset Karp) was the reference of every bit-identity gate
// until the component-first exact path replaced it. Its outputs on the
// gates' seeded instances are pinned in pinnedFile as one digest per
// case, and the exact path must keep reproducing them bit for bit. There
// is deliberately no -update mode: the backend that recorded the file no
// longer exists, so a mismatch is a regression, never a stale golden.
const pinnedFile = "testdata/exact-pinned.golden"

// resultDigest hashes the bit patterns of everything the bit-identity
// gates compare: corrections, precision, per-component precision, the
// component partition and the in-component m~s entries (cross-component
// entries are excluded; no bound or correction ever reads them).
func resultDigest(res *Result) string {
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

// loadPinned reads pinnedFile: one "<case> <digest>" line per case, with
// "error" as the digest of an instance the reference rejected.
func loadPinned(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinnedFile)
	if err != nil {
		t.Fatalf("pinned golden: %v", err)
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("pinned golden: malformed line %q", sc.Text())
		}
		pinned[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("pinned golden: %v", err)
	}
	return pinned
}

// checkPinned asserts that one solve reproduces the pinned digest of the
// named case.
func checkPinned(t *testing.T, pinned map[string]string, name string, res *Result, err error) {
	t.Helper()
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("%s: no pinned digest", name)
	}
	got := "error"
	if err == nil {
		got = resultDigest(res)
	}
	if got != want {
		t.Fatalf("%s: digest %s, pinned %s (err %v)", name, got, want, err)
	}
}

// pinnedRandomTrials replays the seeded instance stream of
// TestSparseMatchesDenseBitIdentical: connected and disconnected, plain
// and centered, with 1 to 4 lanes.
func pinnedRandomTrials(fn func(trial int, mls [][]float64, opts Options)) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		var mls [][]float64
		if trial%2 == 0 {
			mls = randomFeasibleMLS(rng, n)
		} else {
			mls = randomMLS(rng, n, 0.15+0.5*rng.Float64())
		}
		opts := Options{
			Centered:    trial%3 == 0,
			Root:        rng.Intn(n),
			Parallelism: 1 + rng.Intn(4),
		}
		fn(trial, mls, opts)
	}
}

// pinnedCSRTrials replays the sparse topologies of TestSyncCSRMatchesSync.
func pinnedCSRTrials(fn func(trial int, g *graph.CSR, opts Options)) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomSparse(rng, graph.SparseTopology(trial%3), 60+rng.Intn(60), 0.01, 1)
		fn(trial, g, Options{Centered: trial%2 == 0})
	}
}

// pinnedRingOfCliques is the n = 560 instance of TestSparseAutoLargeExact.
func pinnedRingOfCliques() *graph.CSR {
	rng := rand.New(rand.NewSource(555))
	return graph.SparseRingOfCliques(rng, 40, 14, 0.01, 1)
}
