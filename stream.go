package clocksync

import (
	"clocksync/internal/core"
)

// StreamStats counts how a Stream resolved its Corrections calls: served
// unchanged from the certified cache or by a full batch re-solve
// (Repaired is always 0).
type StreamStats = core.StreamStats

// Stream is the incremental interface to the synchronization pipeline for
// long-running deployments: observations are folded in one at a time
// (each new message can only tighten its link's local-shift estimates),
// and Corrections reuses the previous solve wherever the tightened links
// provably cannot change it — falling back to a full batch solve when
// they can. Results are always bit-for-bit identical to what Synchronize
// would return for the same observations.
//
// Reuse contract: the Result returned by Corrections (including every
// slice it references) is owned by the Stream and remains valid only
// until the next Corrections call; use Result.Clone to retain it — the
// same escape hatch as the batch pipeline's arena-backed results. A
// Stream must not be used from multiple goroutines concurrently.
type Stream struct {
	s *core.Stream
}

// NewStream creates a streaming synchronizer over the system's links. The
// options are the same as Synchronize's; the system's links are captured
// at creation (later AddLink calls do not affect an existing Stream).
func (s *System) NewStream(opts ...Option) (*Stream, error) {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	cs, err := core.NewStream(s.n, s.links, core.DefaultMLSOptions(), o)
	if err != nil {
		return nil, err
	}
	return &Stream{s: cs}, nil
}

// Observe folds one delivered message into the stream: the sender's clock
// at transmission and the receiver's clock at receipt, exactly like
// Recorder.Observe. The steady-state cost is O(1) with zero allocations.
func (st *Stream) Observe(from, to ProcID, sendClock, recvClock float64) error {
	return st.s.Observe(from, to, sendClock, recvClock)
}

// Corrections returns instance-optimal corrections for everything
// observed so far — the streaming equivalent of System.Synchronize. See
// the Stream type documentation for the Result reuse contract.
func (st *Stream) Corrections() (*Result, error) {
	return st.s.Corrections()
}

// SetFallbackFraction sets the dirty-edge fraction above which
// Corrections re-solves from scratch instead of attempting incremental
// reuse. The default is core.DefaultFallbackFraction.
func (st *Stream) SetFallbackFraction(f float64) { st.s.SetFallbackFraction(f) }

// Stats returns cumulative solve-path counters for this Stream.
func (st *Stream) Stats() StreamStats { return st.s.Stats() }

// Close is a no-op kept for API compatibility: worker lanes are shared
// process-wide, so a Stream holds nothing to release.
func (st *Stream) Close() { st.s.Close() }
