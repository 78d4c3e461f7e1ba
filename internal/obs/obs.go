// Package obs is the repository's low-overhead observability layer:
// monotone event counters and nanosecond stage timers for the CBM
// multiplication pipeline. The paper (Sec. V-A) splits C = M·B into a
// delta-SpMM stage and a tree-update stage; per-kernel profiling of
// exactly that split is what lets the bench report (cbmbench -exp
// bench) and perfbench attribute a multiply's time on evidence instead
// of folklore (cf. Qiu et al., "Optimizing Sparse Matrix
// Multiplications for Graph Neural Networks").
//
// Design constraints, in priority order:
//
//   - Hot-path cost must be a handful of atomic adds plus two clock
//     reads per *stage* (never per row or per nonzero), so enabling
//     metrics does not perturb the numbers they report.
//   - Disable() must make the remaining cost one atomic load per probe,
//     and must never change computed results (instrumentation carries
//     no state the kernels read).
//   - Probes must be legal inside //cbm:hotpath functions: no
//     allocation, no interface boxing, values only (see
//     internal/lint's hotalloc analyzer).
//
// All state is package-global: the process is the unit of measurement,
// matching how the cmd tools and benchmarks consume snapshots.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline region. Stages are a
// closed enum backed by a fixed array, so recording needs no map or
// allocation.
type Stage uint8

const (
	// StageSpMM is the sparse-dense multiplication kernel — the CSR
	// baseline product or the CBM delta product (stage 1 of MulTo).
	StageSpMM Stage = iota
	// StageUpdate is the CBM compression-tree update traversal
	// (stage 2 of MulTo).
	StageUpdate
	// StageFused named the fused single-pass CBM plan, which was
	// removed; no code emits it, so it always reads zero. It stays so
	// consumers keyed on the stage set (and its "fused" name) keep
	// working.
	StageFused
	// StageCandidates is the candidate-graph construction (the AAᵀ
	// intersection pass of NewBuilder).
	StageCandidates
	// StageCompress is per-α tree construction plus delta extraction
	// (Builder.Compress).
	StageCompress
	// StageLayer is one GNN message-passing layer forward pass.
	StageLayer
	// StageInfer is a whole-model GNN forward pass.
	StageInfer
	// StageEngine is one gnn.Engine inference request end to end:
	// admission wait included, so engine minus infer is queueing.
	StageEngine
	// StageBatch is one micro-batch execution end to end: slot
	// admission, the wide forward pass, and the scatter back into every
	// caller's buffer.
	StageBatch
	// StageBatchWait is one batched request's queue wait — submit to
	// flush start. Its mean is the latency price of coalescing, bounded
	// by the configured flush window.
	StageBatchWait
	// StageGemm is one dense X·W product of a gnn.Linear layer
	// (dense.MulTo), the combination step of a GNN layer. In a GCN
	// forward pass the ReLU between layers has no stage of its own:
	// the next layer's product applies it as it loads X
	// (dense.MulReLUTo), so its cost is inside this stage.
	StageGemm

	numStages
)

var stageNames = [numStages]string{
	StageSpMM:       "spmm",
	StageUpdate:     "update",
	StageFused:      "fused",
	StageCandidates: "candidates",
	StageCompress:   "compress",
	StageLayer:      "layer",
	StageInfer:      "infer",
	StageEngine:     "engine",
	StageBatch:      "batch",
	StageBatchWait:  "batch_wait",
	StageGemm:       "gemm",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Stages returns every defined stage, in declaration order — the
// iteration helper snapshotting and tests use.
func Stages() [numStages]Stage {
	var all [numStages]Stage
	for i := range all {
		all[i] = Stage(i)
	}
	return all
}

// Counter identifies one monotone event counter.
type Counter uint8

const (
	// CounterMulCalls counts cbm.Matrix.MulTo / MulToCtx calls.
	CounterMulCalls Counter = iota
	// CounterMulVecCalls counts cbm MulVec / MulVecParallel calls.
	CounterMulVecCalls
	// CounterSpMMCalls counts kernels.SpMMTo invocations.
	CounterSpMMCalls
	// CounterCompressions counts cbm Builder.Compress runs.
	CounterCompressions
	// CounterLayerForwards counts GNN layer forward passes.
	CounterLayerForwards
	// CounterEngineInfers counts gnn.Engine inference requests served.
	CounterEngineInfers
	// CounterArenaBorrows counts exec arena Borrow calls.
	CounterArenaBorrows
	// CounterArenaGrows counts Borrow calls the local free lists could
	// not serve (global-pool recycles plus fresh allocations); in a
	// warmed-up serving loop this counter stays flat.
	CounterArenaGrows
	// CounterBatchFlushes counts executed micro-batch flushes.
	CounterBatchFlushes
	// CounterBatchRequests counts requests served through batches, so
	// batch_requests/batch_flushes is the mean batch size.
	CounterBatchRequests
	// CounterBatchCols accumulates the feature columns gathered into
	// batches; batch_cols/batch_flushes is the mean wide-SpMM width.
	CounterBatchCols
	// CounterBatchFlushWindow counts flushes triggered by the flush
	// window elapsing.
	CounterBatchFlushWindow
	// CounterBatchFlushBudget counts flushes triggered by the column
	// budget filling before the window elapsed.
	CounterBatchFlushBudget

	numCounters
)

var counterNames = [numCounters]string{
	CounterMulCalls:      "mul_calls",
	CounterMulVecCalls:   "mulvec_calls",
	CounterSpMMCalls:     "spmm_calls",
	CounterCompressions:  "compressions",
	CounterLayerForwards: "layer_forwards",
	CounterEngineInfers:  "engine_infers",
	CounterArenaBorrows:  "arena_borrows",
	CounterArenaGrows:    "arena_grows",

	CounterBatchFlushes:     "batch_flushes",
	CounterBatchRequests:    "batch_requests",
	CounterBatchCols:        "batch_cols",
	CounterBatchFlushWindow: "batch_flush_window",
	CounterBatchFlushBudget: "batch_flush_budget",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// stageRec accumulates one stage. It is padded out to a cache line so
// concurrent spans on neighbouring stages do not false-share.
type stageRec struct {
	count atomic.Int64
	nanos atomic.Int64
	_     [48]byte
}

var (
	// disabled is inverted so the useful zero value (recording on) needs
	// no init. Disable() flips every probe into a single atomic load.
	disabled atomic.Bool
	stages   [numStages]stageRec
	counters [numCounters]atomic.Int64
)

// Enabled reports whether probes are currently recording.
func Enabled() bool { return !disabled.Load() }

// Enable turns recording on (the default state).
func Enable() { disabled.Store(false) }

// Disable turns every probe into a near-free atomic load. Results of
// instrumented kernels are unaffected — obs carries no state they read.
func Disable() { disabled.Store(true) }

// Inc adds 1 to c.
func Inc(c Counter) { Add(c, 1) }

// Add adds n to c.
func Add(c Counter, n int64) {
	if disabled.Load() {
		return
	}
	counters[c].Add(n)
}

// CounterValue returns the cumulative value of c.
func CounterValue(c Counter) int64 { return counters[c].Load() }

// Span is an in-flight stage timer. The zero Span (returned by Begin
// when recording is off) is inert: End on it is a no-op. Spans are
// values — beginning one allocates nothing. A span begun on a Recorder
// carries a pointer to it and End folds the duration into the recorder
// as well as the global totals.
type Span struct {
	start time.Time
	rec   *Recorder
	stage Stage
	live  bool
}

// Begin starts timing one occurrence of stage s.
func Begin(s Stage) Span {
	if disabled.Load() {
		return Span{}
	}
	return Span{start: time.Now(), stage: s, live: true}
}

// End stops the span and folds its duration into the stage totals —
// the global ones always, plus the owning Recorder's when the span was
// begun on one.
func (sp Span) End() {
	if !sp.live {
		return
	}
	d := time.Since(sp.start)
	stages[sp.stage].count.Add(1)
	stages[sp.stage].nanos.Add(int64(d))
	if sp.rec != nil {
		sp.rec.stages[sp.stage].count.Add(1)
		sp.rec.stages[sp.stage].nanos.Add(int64(d))
	}
}

// StageTotals returns the cumulative (count, nanoseconds) recorded for
// s. Benchmarks take before/after deltas around a measured region to
// attribute its time to stages.
func StageTotals(s Stage) (count, nanos int64) {
	return stages[s].count.Load(), stages[s].nanos.Load()
}

// Reset zeroes every stage accumulator and counter. Recording state
// (enabled/disabled) is untouched.
func Reset() {
	for i := range stages {
		stages[i].count.Store(0)
		stages[i].nanos.Store(0)
	}
	for i := range counters {
		counters[i].Store(0)
	}
}
