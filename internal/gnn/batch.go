package gnn

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
)

// BatchModel is a Model that can serve several same-shaped requests in
// one forward pass. InferBatchTo must produce, for every request i,
// output bitwise identical to InferTo(ctx, outs[i], a, xs[i]) — the
// engine's batched path is only allowed to change *when* work runs,
// never *what* it computes. GCN2 implements it by running the dense
// transforms per request (identical to the solo path) and the sparse
// aggregation once over the column-concatenation of all requests — the
// wide SpMM whose per-column amortization is the point of
// micro-batching.
type BatchModel interface {
	Model
	// InferBatchTo serves len(xs) requests at once, writing request i's
	// logits into outs[i]. All inputs are n×InDim, all outputs
	// n×OutDim; scratch comes from ctx and is released before return.
	InferBatchTo(ctx *exec.Ctx, outs []*dense.Matrix, a Adjacency, xs []*dense.Matrix)
}

// gatherCols copies src (rows×w) into columns [off, off+w) of the
// wider dst — the packing half of batched serving. A pure copy: the
// bits entering the wide buffer are exactly the bits of src.
//
//cbm:hotpath
func gatherCols(dst *dense.Matrix, off int, src *dense.Matrix) {
	if src.Rows != dst.Rows || off < 0 || off+src.Cols > dst.Cols {
		panic(fmt.Sprintf("gnn: gatherCols src %d×%d into dst %d×%d at column %d", src.Rows, src.Cols, dst.Rows, dst.Cols, off))
	}
	w := src.Cols
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i)[off:off+w], src.Row(i))
	}
}

// scatterCols copies columns [off, off+dst.Cols) of the wider src into
// dst — the unpacking half. Like gatherCols it moves bits verbatim, so
// a column slice of a wide product round-trips unchanged.
//
//cbm:hotpath
func scatterCols(dst *dense.Matrix, src *dense.Matrix, off int) {
	if src.Rows != dst.Rows || off < 0 || off+dst.Cols > src.Cols {
		panic(fmt.Sprintf("gnn: scatterCols src %d×%d at column %d into dst %d×%d", src.Rows, src.Cols, off, dst.Rows, dst.Cols))
	}
	w := dst.Cols
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[off:off+w])
	}
}

// inferStackBatchTo is the batched forward behind GCN2: per layer,
// each request's dense transform H·W runs exactly as it does solo
// (same kernel, same shapes, same operation order), and the sparse
// aggregation Â·(H·W) runs ONCE on the column concatenation of every
// request's transform. Output columns of every multiply kernel in this
// repository depend only on the matching input columns — each element
// accumulates over the row's nonzeros in a fixed order, never across
// columns — so the slice of the wide product belonging to request i is
// bitwise identical to the narrow product request i would have
// computed alone (asserted by the batch tests on both backends).
//
//cbm:hotpath
func inferStackBatchTo(ctx *exec.Ctx, outs []*dense.Matrix, layers []*GCNConv, a Adjacency, xs []*dense.Matrix) {
	k := len(xs)
	if k != len(outs) {
		panic(fmt.Sprintf("gnn: batched inference with %d inputs but %d outputs", k, len(outs)))
	}
	if k == 0 {
		return
	}
	if k == 1 {
		// A batch of one is exactly a solo request; skip the copies.
		inferStackTo(ctx, outs[0], layers, a, xs[0])
		return
	}
	sp := ctx.Begin(obs.StageInfer)
	n := a.Rows()
	// wideH holds the column-concatenated activations entering the
	// current layer, [h_1 | h_2 | … | h_k]; nil on the first layer,
	// whose transforms read the callers' xs directly (no copy-in).
	// The wide scratch is BorrowUninit: every buffer below is fully
	// overwritten before it is read (MulTo/SpMM overwrite their
	// outputs, and the k gather stripes cover every column), and at k×
	// a request's footprint the skipped memsets are a real fraction of
	// the batch.
	var wideH *dense.Matrix
	for l, layer := range layers {
		lsp := ctx.Begin(obs.StageLayer)
		ctx.Inc(obs.CounterLayerForwards)
		in, out := layer.Lin.In, layer.Lin.Out
		wideXW := ctx.BorrowUninit(n, k*out)
		tout := ctx.BorrowUninit(n, out)
		var tin *dense.Matrix
		if wideH != nil {
			tin = ctx.BorrowUninit(n, in)
		}
		for i := 0; i < k; i++ {
			src := xs[i]
			if wideH != nil {
				scatterCols(tin, wideH, i*in)
				src = tin
			}
			layer.Lin.ForwardTo(ctx, tout, src)
			gatherCols(wideXW, i*out, tout)
		}
		ctx.Release(tout)
		if wideH != nil {
			ctx.Release(tin)
			ctx.Release(wideH)
		}
		wideS := ctx.BorrowUninit(n, k*out)
		a.MulToCtx(ctx, wideS, wideXW)
		ctx.Release(wideXW)
		if l != len(layers)-1 {
			// Element-wise, so applying it to the wide buffer is the
			// same bits as applying it per slice.
			asp := ctx.Begin(obs.StageActivation)
			wideS.ReLU()
			asp.End()
		}
		wideH = wideS
		lsp.End()
	}
	outW := layers[len(layers)-1].Lin.Out
	for i, out := range outs {
		scatterCols(out, wideH, i*outW)
	}
	ctx.Release(wideH)
	sp.End()
}

// BatchConfig configures cross-request micro-batching on an Engine. A
// positive Window enables it.
type BatchConfig struct {
	// Window is the flush window: the longest a pending request waits
	// for companions before its batch executes. It is the engine's
	// queueing-latency bound — p99 added latency ≤ Window plus one
	// batch execution. A positive Window enables batching.
	Window time.Duration
	// MaxCols is the column budget: when the summed feature columns of
	// pending requests reach it, the batch flushes immediately instead
	// of waiting out the window. 0 means 8× the model's input width.
	MaxCols int
}

// queuePerSlot sizes the batcher's submit queue: requests that can wait
// for the next flush beyond the one being gathered, per engine slot.
// Deep enough that submitters rarely block on the flusher while it
// executes a batch; the queue is bounded so memory stays bounded.
const queuePerSlot = 4

// flush reasons, recorded as counters so tests and operators can see
// why batches closed.
const (
	flushWindow = iota // the flush window elapsed
	flushBudget        // the column budget filled
	flushDrain         // Close drained the queue
)

// batchReq is one queued request. Requests are pooled on a free list
// (done channel included), so the steady-state submit path allocates
// nothing. done carries the batch's outcome: nil when it was served, or
// a panic recovered from the batch execution, which the submitting
// goroutine re-raises so batched and unbatched failure surfaces match.
type batchReq struct {
	out, x *dense.Matrix
	wait   obs.Span // queue-wait span: submit → flush start
	done   chan any
	next   *batchReq
}

// batcher is the micro-batching scheduler: a single goroutine (the
// flusher) owns the pending batch, its flush timer, and all execution;
// submitters only touch the submit channel and their own done channel.
// One flush takes ONE execution slot from the engine — one context,
// one wide arena lease — however many requests it coalesces.
type batcher struct {
	eng     *Engine
	window  time.Duration
	maxCols int

	submit chan *batchReq

	// Flusher-goroutine state: single-owner, unlocked.
	pending     []*batchReq
	pendingCols int
	timer       clock.Timer
	armed       bool
	outs        []*dense.Matrix // per-flush scratch, reused
	xs          []*dense.Matrix

	freeMu sync.Mutex
	free   *batchReq

	// enqueued, when set (tests only), receives one token after each
	// request joins the pending batch — the deterministic-clock tests'
	// synchronization point.
	enqueued chan<- struct{}

	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}
}

func newBatcher(e *Engine, cfg EngineConfig) *batcher {
	maxCols := cfg.Batch.MaxCols
	if maxCols <= 0 {
		maxCols = 8 * e.model.InDim()
	}
	b := &batcher{
		eng:     e,
		window:  cfg.Batch.Window,
		maxCols: maxCols,
		submit:  make(chan *batchReq, queuePerSlot*cap(e.ctxs)),
		stopc:   make(chan struct{}),
		donec:   make(chan struct{}),
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	b.timer = clk.NewTimer()
	return b
}

// loop is the flusher goroutine.
func (b *batcher) loop() {
	defer close(b.donec)
	for {
		select {
		case r := <-b.submit:
			b.enqueue(r)
		case <-b.timer.C():
			b.armed = false
			if len(b.pending) > 0 {
				b.flush(flushWindow)
			}
		case <-b.stopc:
			// Drain: serve whatever is already queued, then exit.
			for {
				select {
				case r := <-b.submit:
					b.pending = append(b.pending, r)
					b.pendingCols += r.x.Cols
				default:
					if len(b.pending) > 0 {
						b.flush(flushDrain)
					}
					return
				}
			}
		}
	}
}

// enqueue adds one request to the pending batch and decides whether it
// tips the batch over the column budget.
//
//cbm:hotpath
func (b *batcher) enqueue(r *batchReq) {
	if len(b.pending) == cap(b.pending) {
		b.growPending()
	}
	b.pending = b.pending[:len(b.pending)+1]
	b.pending[len(b.pending)-1] = r
	b.pendingCols += r.x.Cols
	if b.pendingCols >= b.maxCols {
		if b.armed {
			b.stopTimer()
		}
		b.flush(flushBudget)
	} else if len(b.pending) == 1 {
		// First request of a fresh batch: its window bounds how long
		// the whole batch may gather.
		b.timer.Reset(b.window)
		b.armed = true
	}
	if b.enqueued != nil {
		b.enqueued <- struct{}{}
	}
}

// growPending reallocates the pending list with doubled capacity.
// Cold: it runs only when a batch gathers more requests than any
// before it.
func (b *batcher) growPending() {
	np := make([]*batchReq, len(b.pending), 2*cap(b.pending)+1)
	copy(np, b.pending)
	b.pending = np
}

// ensureScratch guarantees the per-flush scratch slices can hold n
// requests without growing mid-flush. Cold beyond new high-water
// marks: it reallocates only when a batch is larger than any before.
func (b *batcher) ensureScratch(n int) {
	if cap(b.outs) >= n {
		return
	}
	b.outs = make([]*dense.Matrix, 0, n)
	b.xs = make([]*dense.Matrix, 0, n)
}

// leakMsg builds the poisoned-slot panic payload. Out of line (and
// already typed any) so the hot flush path does no fmt boxing — the
// kindPanicMsg idiom.
func leakMsg(n int) any {
	return fmt.Sprintf("gnn: batched request leaked %d arena buffer(s)", n)
}

// stopTimer disarms the flush timer, draining a fire that raced in —
// without the drain, a stale fire would flush the *next* batch early.
//
//cbm:hotpath
func (b *batcher) stopTimer() {
	b.armed = false
	if !b.timer.Stop() {
		select {
		case <-b.timer.C():
		default:
		}
	}
}

// flush executes the pending batch as one wide forward pass on one
// leased context, and every waiter hears its outcome.
//
//cbm:hotpath
func (b *batcher) flush(reason int) {
	obs.Inc(obs.CounterBatchFlushes)
	switch reason {
	case flushWindow:
		obs.Inc(obs.CounterBatchFlushWindow)
	case flushBudget:
		obs.Inc(obs.CounterBatchFlushBudget)
	}
	b.ensureScratch(len(b.pending))
	b.outs, b.xs = b.outs[:0], b.xs[:0]
	for _, r := range b.pending {
		r.wait.End()
		b.outs = b.outs[:len(b.outs)+1]
		b.outs[len(b.outs)-1] = r.out
		b.xs = b.xs[:len(b.xs)+1]
		b.xs[len(b.xs)-1] = r.x
	}
	obs.Add(obs.CounterBatchRequests, int64(len(b.pending)))
	obs.Add(obs.CounterBatchCols, int64(b.pendingCols))

	// One wide lease per batch: the whole batch is admitted as a single
	// tenant of one execution slot.
	ctx := <-b.eng.ctxs
	pv := b.runBatch(ctx)
	if n := ctx.Arena().Outstanding(); n != 0 {
		// The leak check every unbatched release performs, applied per
		// batch. The context is poisoned — handing it to the next
		// tenant would alias its scratch — so the slot retires and
		// every waiter panics instead.
		pv = leakMsg(n)
	} else {
		b.eng.ctxs <- ctx
	}
	for i, r := range b.pending {
		r.done <- pv
		b.pending[i] = nil
	}
	b.pending = b.pending[:0]
	b.pendingCols = 0
}

// runBatch executes the gathered requests on the leased context,
// converting a panic into a value so the flusher survives and each
// submitter re-panics on its own goroutine.
//
//cbm:hotpath
func (b *batcher) runBatch(ctx *exec.Ctx) (pv any) {
	defer func() { pv = recover() }()
	sp := ctx.Begin(obs.StageBatch)
	for range b.outs {
		ctx.Inc(obs.CounterEngineInfers)
	}
	if bm := b.eng.batchModel; bm != nil {
		bm.InferBatchTo(ctx, b.outs, b.eng.adj, b.xs)
	} else {
		// The model cannot batch: serve the requests back to back on
		// the one leased context. Still one admission per batch.
		for i, out := range b.outs {
			b.eng.model.InferTo(ctx, out, b.eng.adj, b.xs[i])
		}
	}
	sp.End()
	return nil
}

// do submits one request and blocks until its batch has executed.
//
//cbm:hotpath
func (b *batcher) do(out, x *dense.Matrix) {
	r := b.getReq()
	r.out, r.x = out, x
	r.wait = obs.Begin(obs.StageBatchWait)
	b.submit <- r
	pv := <-r.done
	b.putReq(r)
	if pv != nil {
		panic(pv)
	}
}

// close stops the flusher after it drains already-queued requests.
// Safe to call more than once; must not race in-flight submissions.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stopc) })
	<-b.donec
}

// getReq pops a pooled request (or allocates the pool's next one —
// cold; the free list makes the steady state allocation-free).
//
//cbm:hotpath
func (b *batcher) getReq() *batchReq {
	b.freeMu.Lock()
	r := b.free
	if r != nil {
		b.free = r.next
		r.next = nil
	}
	b.freeMu.Unlock()
	if r == nil {
		r = newBatchReq()
	}
	return r
}

// newBatchReq allocates a fresh pooled request, done channel included.
// Cold: the free list serves the steady state.
func newBatchReq() *batchReq {
	return &batchReq{done: make(chan any, 1)}
}

// putReq returns a request to the pool, dropping matrix references so
// a pooled request cannot pin a caller's buffers.
//
//cbm:hotpath
func (b *batcher) putReq(r *batchReq) {
	r.out, r.x = nil, nil
	r.wait = obs.Span{}
	b.freeMu.Lock()
	r.next = b.free
	b.free = r
	b.freeMu.Unlock()
}
