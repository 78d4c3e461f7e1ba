// Sinks route probe events either to the package-global accumulators
// or to a caller-owned Recorder. The interface used to live in
// internal/exec; it moved here so measurement code (the bench report,
// perfbench) can scope per-stage attribution to its own calls
// without importing the execution-context layer. Global totals stay
// complete either way: a Recorder-tagged span folds its duration into
// both the process-wide state and the recorder, so scoping never makes
// the global picture lie.

package obs

import (
	"sync/atomic"
	"time"
)

// Sink receives the observability events an instrumented region emits.
// The default ObsSink forwards to the process-global accumulators;
// NopSink silences a context; a Recorder additionally keeps a private
// copy of everything it sees.
type Sink interface {
	// Begin starts timing one occurrence of stage s.
	Begin(s Stage) Span
	// Inc adds one to counter c.
	Inc(c Counter)
}

// ObsSink forwards every event to the package-global accumulators —
// the default, matching the non-ctx entry points.
type ObsSink struct{}

// Begin forwards to Begin.
func (ObsSink) Begin(s Stage) Span { return Begin(s) }

// Inc forwards to Inc.
func (ObsSink) Inc(c Counter) { Inc(c) }

// NopSink drops every event.
type NopSink struct{}

// Begin returns an inert span.
func (NopSink) Begin(Stage) Span { return Span{} }

// Inc does nothing.
func (NopSink) Inc(Counter) {}

// Global is the package-level ObsSink value hot paths pass around.
// Using this shared interface value (instead of boxing a fresh
// ObsSink{} at every call site) keeps //cbm:hotpath functions
// allocation-free.
var Global Sink = ObsSink{}

// Nop is the shared NopSink interface value, for the same reason.
var Nop Sink = NopSink{}

// Recorder is a Sink with private per-stage timers and counters on top
// of the global ones: a span begun on a Recorder folds its duration
// into both, so a measurement loop can attribute stage time to exactly
// its own calls while concurrent work on other goroutines keeps
// reporting globally. This is what makes a measurement's per-stage
// split immune to double-counting under concurrency — global
// StageTotals deltas see every goroutine's spans; a Recorder sees only
// its own.
//
// A Recorder is safe for concurrent use (all state is atomic).
type Recorder struct {
	stages   [numStages]stageRec
	counters [numCounters]atomic.Int64
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin starts timing one occurrence of stage s, attributed to this
// recorder as well as the global state.
//
//cbm:hotpath
func (r *Recorder) Begin(s Stage) Span {
	if disabled.Load() {
		return Span{}
	}
	return Span{start: time.Now(), stage: s, live: true, rec: r}
}

// Inc adds one to counter c on this recorder and globally.
//
//cbm:hotpath
func (r *Recorder) Inc(c Counter) {
	if disabled.Load() {
		return
	}
	r.counters[c].Add(1)
	counters[c].Add(1)
}

// StageTotals returns the (count, nanoseconds) this recorder has seen
// for s.
func (r *Recorder) StageTotals(s Stage) (count, nanos int64) {
	return r.stages[s].count.Load(), r.stages[s].nanos.Load()
}

// StageSeconds returns the cumulative seconds recorded for s.
func (r *Recorder) StageSeconds(s Stage) float64 {
	return float64(r.stages[s].nanos.Load()) / 1e9
}

// CounterValue returns the recorder-local value of c.
func (r *Recorder) CounterValue(c Counter) int64 { return r.counters[c].Load() }

// Reset zeroes the recorder's accumulators (the global state is
// untouched).
func (r *Recorder) Reset() {
	for i := range r.stages {
		r.stages[i].count.Store(0)
		r.stages[i].nanos.Store(0)
	}
	for i := range r.counters {
		r.counters[i].Store(0)
	}
}
