package gnn

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Model is a GNN whose forward pass can write its logits into a
// caller-owned buffer through an execution context. GCN2 implements
// it; Engine serves any implementation.
type Model interface {
	// InferTo runs the forward pass on backend a, writing the logits
	// into out (n×OutDim). Implementations borrow scratch from ctx and
	// release all of it before returning.
	InferTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix)
	// InDim returns the input feature width the model expects.
	InDim() int
	// OutDim returns the output feature width the model produces.
	OutDim() int
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// MaxInFlight bounds concurrently admitted Infer requests, and with
	// it the engine's memory: each slot owns one execution context whose
	// arena the request leases. 0 means GOMAXPROCS.
	MaxInFlight int
	// Threads is the thread budget each admitted request's forward pass
	// may use. 0 means 1 — the zero-allocation serving configuration,
	// where parallelism comes from concurrent requests rather than from
	// intra-request worker teams.
	Threads int
	// Batch configures cross-request micro-batching: concurrent
	// requests are coalesced into one wide forward pass that leases a
	// single execution slot. The zero value leaves batching off. See
	// BatchConfig.
	Batch BatchConfig
	// Clock supplies time to the batching scheduler. nil means the
	// system clock; tests inject a clock.Fake to drive flush windows
	// deterministically.
	Clock clock.Clock
}

// Engine is a concurrent batched-inference front-end: it owns one
// compressed adjacency plus model weights and serves many simultaneous
// Infer requests with bounded memory. Admission and workspace are the
// same object — a channel of execution contexts; a request blocks
// until a context frees, runs the pooled forward path on it, and
// returns it. After each slot's arena has warmed (one request per
// slot), the steady-state request path performs zero allocations (see
// TestEngineInferZeroAlloc), and because every kernel's result is
// invariant to its thread count, concurrent output is bitwise
// identical to the sequential allocating path.
//
// With BatchConfig.Window set, the engine additionally coalesces
// concurrent requests into micro-batches: requests arriving within one
// flush window (or until the column budget fills) execute as a single
// wide forward pass on one leased slot, amortizing the sparse
// aggregation across every caller's feature columns. Batched output is
// bitwise identical to the unbatched path (see BatchModel); only
// scheduling changes. A batching engine owns a flusher goroutine —
// call Close when done with it.
type Engine struct {
	model Model
	// batchModel is model's BatchModel side, resolved once at
	// construction so the per-batch path performs no type assertion.
	// nil when the model cannot batch (batches then run as back-to-back
	// solo passes on the one leased slot).
	batchModel BatchModel
	adj        Adjacency
	ctxs       chan *exec.Ctx
	b          *batcher // nil when batching is disabled
}

// NewEngine builds an engine serving the given model over the given
// adjacency backend.
func NewEngine(model Model, adj Adjacency, cfg EngineConfig) *Engine {
	slots := cfg.MaxInFlight
	if slots <= 0 {
		slots = parallel.DefaultThreads()
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	e := &Engine{model: model, adj: adj, ctxs: make(chan *exec.Ctx, slots)}
	e.batchModel, _ = model.(BatchModel)
	for i := 0; i < slots; i++ {
		e.ctxs <- exec.New(threads)
	}
	if cfg.Batch.Window > 0 {
		e.b = newBatcher(e, cfg)
		go e.b.loop()
	}
	return e
}

// Slots returns the configured max-in-flight request count.
func (e *Engine) Slots() int { return cap(e.ctxs) }

// Rows returns the node count of the adjacency the engine serves.
func (e *Engine) Rows() int { return e.adj.Rows() }

// OutDim returns the served model's output width.
func (e *Engine) OutDim() int { return e.model.OutDim() }

// Close shuts down the batching scheduler, if any: already-queued
// requests are served (one final drain flush), then the flusher
// goroutine exits and further batched submissions would block forever
// — stop submitting before closing. Idempotent; a no-op on an engine
// without batching.
func (e *Engine) Close() {
	if e.b != nil {
		e.b.close()
	}
}

// InferTo serves one inference request, writing the logits for input
// x (n×InDim) into the caller-owned out (n×OutDim). It blocks until
// an execution slot frees (unbatched) or until its micro-batch has
// executed (batched). Safe for concurrent use.
//
//cbm:hotpath
func (e *Engine) InferTo(out, x *dense.Matrix) {
	if e.b != nil {
		// Validate at submit, on the caller's goroutine: a malformed
		// request must panic its own caller, never poison the batch it
		// would have joined.
		e.checkShapes(out, x)
		e.b.do(out, x)
		return
	}
	ctx := <-e.ctxs
	e.run(ctx, out, x)
}

// Infer is the allocating convenience wrapper around InferTo.
func (e *Engine) Infer(x *dense.Matrix) *dense.Matrix {
	out := dense.New(e.adj.Rows(), e.model.OutDim())
	e.InferTo(out, x)
	return out
}

// run executes one admitted request on its leased context. Shape
// validation happens here, under the slot lease, so the request is
// checked against the same adjacency state it executes on — the
// ordering an atomic adjacency swap will need — and a panicking
// validation still returns its slot through the deferred release.
//
//cbm:hotpath
func (e *Engine) run(ctx *exec.Ctx, out, x *dense.Matrix) {
	defer e.release(ctx)
	e.checkShapes(out, x)
	sp := ctx.Begin(obs.StageEngine)
	ctx.Inc(obs.CounterEngineInfers)
	e.model.InferTo(ctx, out, e.adj, x)
	sp.End()
}

// release returns a leased context to the pool, enforcing the arena
// ownership rule: a request that exits still holding borrowed buffers
// would hand the next tenant aliased scratch, so leaking is a panic,
// not a warning.
func (e *Engine) release(ctx *exec.Ctx) {
	if n := ctx.Arena().Outstanding(); n != 0 {
		panic(fmt.Sprintf("gnn: engine request leaked %d arena buffer(s)", n))
	}
	e.ctxs <- ctx
}

// checkShapes validates one request against the engine's adjacency and
// model. Unbatched requests are validated under their slot lease (see
// run); batched requests at submit, before joining a batch.
func (e *Engine) checkShapes(out, x *dense.Matrix) {
	n := e.adj.Rows()
	if x.Rows != n || x.Cols != e.model.InDim() {
		panic(fmt.Sprintf("gnn: engine input is %d×%d, want %d×%d", x.Rows, x.Cols, n, e.model.InDim()))
	}
	if out.Rows != n || out.Cols != e.model.OutDim() {
		panic(fmt.Sprintf("gnn: engine output is %d×%d, want %d×%d", out.Rows, out.Cols, n, e.model.OutDim()))
	}
}
