// Package exec provides the execution context threaded through the
// GNN forward path: a thread budget, an observability sink and a
// pooled dense-matrix arena, bundled into one value so kernels and
// layers stop re-deriving them per call. The paper's end-to-end GCN
// speedups (Sec. VI) assume the multiplication pipeline is the only
// per-inference cost; a fresh dense.Matrix per layer hop buys the
// allocator and the garbage collector a seat in every measurement.
// Routing the forward path through a Ctx removes that: steady-state
// inference through an Engine performs zero allocations per request
// (see internal/gnn and the AllocsPerRun tests).
//
// Ownership rules (enforced by Arena, documented in DESIGN.md):
//
//   - Whoever calls Borrow calls Release, on the same Ctx, before
//     returning. Output buffers passed in by a caller are never
//     released by the callee.
//   - A Ctx (and its arena) serves one goroutine at a time. Concurrent
//     serving hands each in-flight request its own Ctx (gnn.Engine
//     leases them through a channel).
//   - Releasing a matrix twice, or one the arena never lent, panics.
package exec

import (
	"repro/internal/dense"
	"repro/internal/obs"
)

// Ctx is one execution context: the thread budget a request may use,
// the sink its instrumentation reports to, and the arena its scratch
// matrices come from. A Ctx is not safe for concurrent use — it is
// the unit of isolation, one per in-flight request.
type Ctx struct {
	threads int
	sink    obs.Sink
	arena   Arena
}

// New returns a context with the given thread budget (values < 1 mean
// "library default", exactly like the bare threads parameters it
// replaces) reporting to the global obs state.
func New(threads int) *Ctx {
	return NewWithSink(threads, obs.ObsSink{})
}

// NewWithSink returns a context reporting to the given sink
// (nil = obs.NopSink).
func NewWithSink(threads int, s obs.Sink) *Ctx {
	if s == nil {
		s = obs.NopSink{}
	}
	c := &Ctx{threads: threads, sink: s}
	c.arena.sink = s
	return c
}

// Threads returns the context's thread budget.
//
//cbm:hotpath
func (c *Ctx) Threads() int { return c.threads }

// Sink exposes the context's observability sink, so instrumented
// kernels below the Ctx surface (cbm's multiplication plans) can emit
// spans scoped the same way the context is.
//
//cbm:hotpath
func (c *Ctx) Sink() obs.Sink { return c.sink }

// Begin starts timing one occurrence of stage s on the context's sink.
//
//cbm:hotpath
func (c *Ctx) Begin(s obs.Stage) obs.Span { return c.sink.Begin(s) }

// Inc adds one to counter ct on the context's sink.
//
//cbm:hotpath
func (c *Ctx) Inc(ct obs.Counter) { c.sink.Inc(ct) }

// Borrow leases a zeroed rows×cols matrix from the context's arena.
// The caller must Release it on this same context before returning.
//
//cbm:hotpath
func (c *Ctx) Borrow(rows, cols int) *dense.Matrix { return c.arena.Borrow(rows, cols) }

// BorrowUninit leases a rows×cols matrix without zeroing it — only
// for destinations the caller fully overwrites before reading (see
// Arena.BorrowUninit). Release it like any borrow.
//
//cbm:hotpath
func (c *Ctx) BorrowUninit(rows, cols int) *dense.Matrix { return c.arena.BorrowUninit(rows, cols) }

// Release returns a borrowed matrix to the context's arena. Releasing
// a matrix twice, or one this arena never lent, panics.
//
//cbm:hotpath
func (c *Ctx) Release(m *dense.Matrix) { c.arena.Release(m) }

// Arena exposes the context's arena (leak checks, tests).
func (c *Ctx) Arena() *Arena { return &c.arena }
