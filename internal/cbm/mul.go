// Matrix multiplication kernels for the CBM format (Sec. IV–V).
//
// C = M·B is computed in two stages:
//
//  1. Multiplication stage: C ← A'·B (or (AD)'·B), a plain sparse-dense
//     product on the delta matrix, delegated to the same SpMM kernel
//     the CSR baseline uses (the paper delegates to Intel MKL here).
//  2. Update stage: the compression tree is traversed in topological
//     order; each visited row accumulates its parent's finished row
//     (an axpy), with the extra d_x/d_parent row scaling for DAD
//     matrices (Eq. 6), in kernels.TreeUpdate. Branches hanging off
//     the virtual root are independent, so the parallel variant
//     distributes blocks of whole branches to threads with dynamic
//     scheduling, one kernel call per block; sequentially one call
//     covers them all.
//
// Property 3 holds: no scratch proportional to the matrix size is
// allocated; everything happens in the output matrix C.

package cbm

import (
	"fmt"
	"slices"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// kindPanicMsg builds the panic text for an unhandled matrix kind in a
// kernel switch. It lives out of line so //cbm:hotpath bodies keep an
// allocation-free success path, and it carries the offending kind and
// dimensions so the report needs no round-trip.
func kindPanicMsg(k Kind, n int) string {
	return fmt.Sprintf("cbm: unknown matrix kind %d (%v) on %d×%d matrix", int(k), k, n, n)
}

// Mul computes C = M·B sequentially and returns C.
func (m *Matrix) Mul(b *dense.Matrix) *dense.Matrix {
	c := dense.New(m.n, b.Cols)
	m.MulTo(c, b, 1)
	return c
}

// MulParallel computes C = M·B with the given number of threads and
// returns C. threads < 1 selects the default.
func (m *Matrix) MulParallel(b *dense.Matrix, threads int) *dense.Matrix {
	c := dense.New(m.n, b.Cols)
	m.MulTo(c, b, threads)
	return c
}

// MulTo computes c = M·b into the pre-allocated output c (overwritten).
//
// It dispatches to one of two physical execution plans, chosen per
// matrix by the compression-ratio rule behind PlanFor: the paper's
// two-stage pipeline (whole-matrix delta SpMM, barrier, tree update),
// or the raw diag-scaled CSR product that skips the compression tree
// entirely. The CSR plan computes the same product by a different
// summation order and is validated within tolerance by the
// differential oracle.
//
//cbm:hotpath
func (m *Matrix) MulTo(c, b *dense.Matrix, threads int) {
	m.mulStrategy(c, b, threads, m.PlanFor(threads, b.Cols), obs.Global)
}

// MulToCtx is MulTo driven by an execution context: the thread budget
// and the observability sink come from ctx instead of bare parameters.
// It is the entry point the gnn Adjacency backends use on the pooled
// forward path.
//
//cbm:hotpath
func (m *Matrix) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	m.mulStrategy(c, b, ctx.Threads(), m.PlanFor(ctx.Threads(), b.Cols), ctx.Sink())
}

// MulToStrategyCtx is MulToStrategy driven by an execution context.
//
//cbm:hotpath
func (m *Matrix) MulToStrategyCtx(ctx *exec.Ctx, c, b *dense.Matrix, strat UpdateStrategy) {
	m.mulStrategy(c, b, ctx.Threads(), strat, ctx.Sink())
}

// mulTwoStage is the paper's Sec. V-A pipeline: delta SpMM over every
// row, full barrier, then the branch-parallel tree update.
//
//cbm:hotpath
func (m *Matrix) mulTwoStage(c, b *dense.Matrix, threads int, sink obs.Sink) {
	kernels.SpMMToSink(c, m.delta, b, threads, sink)
	// Closure-free sequential fast path: the obs.DoWith closure
	// allocates at this call site even when the update then runs
	// inline, which the zero-allocation serving path cannot afford. The
	// branches are stored back to back, so one kernel call updates them
	// all.
	if parallel.Sequential(threads, m.NumBranches()) {
		sp := sink.Begin(obs.StageUpdate)
		m.updateRows(c, m.order)
		sp.End()
		return
	}
	// Blocks of whole branches, about grain rows each, the SpMM's row
	// grain: block k is the branches whose first row sits in
	// m.order[k·grain : (k+1)·grain], so a branch longer than grain is
	// a block on its own (the blocks inside it are empty) and short
	// branches share one kernel call.
	grain := m.n / (8 * parallel.EffectiveThreads(threads, m.NumBranches()))
	if grain < 16 {
		grain = 16
	}
	obs.DoWith(sink, obs.StageUpdate, func() {
		parallel.ForDynamic((m.n+grain-1)/grain, threads, 1, func(k int) {
			lo, _ := slices.BinarySearch(m.branchOff, int32(k*grain))
			hi, _ := slices.BinarySearch(m.branchOff, int32(min((k+1)*grain, m.n)))
			if lo < hi {
				m.updateRows(c, m.order[m.branchOff[lo]:m.branchOff[hi]])
			}
		})
	})
}

// mulCSR is the StrategyCSR plan: the represented matrix multiplied
// directly as diag(left)·src·diag(right)·B, skipping the compression
// tree. Only available while the matrix carries its source CSR.
//
//cbm:hotpath
func (m *Matrix) mulCSR(c, b *dense.Matrix, threads int, sink obs.Sink) {
	if m.src == nil {
		panic("cbm: StrategyCSR requires the source matrix (see HasCSRPlan); decoded artifacts do not carry it")
	}
	switch m.kind {
	case KindA, KindAD, KindDAD:
	default:
		// The diagonals encode the kind implicitly, but a corrupted kind
		// must fail as loudly here as in the tree-walking plans.
		panic(kindPanicMsg(m.kind, m.n))
	}
	kernels.SpMMDiagTo(c, m.src, b, m.srcLeft, m.srcRight, threads, sink)
}

// updateRows applies the update stage (Eq. 6) to a run of whole
// branches in pre-order, each parent strictly before its children.
//
//cbm:hotpath
func (m *Matrix) updateRows(c *dense.Matrix, rows []int32) {
	var diag []float32
	switch m.kind {
	case KindA, KindAD:
	case KindDAD:
		diag = m.diag
	default:
		panic(kindPanicMsg(m.kind, m.n))
	}
	kernels.TreeUpdate(c, rows, m.parent, diag)
}

// UpdateStrategy names an execution plan: MulTo picks one through
// PlanFor, and MulToStrategy forces one for ablation benchmarks and the
// differential-verification sweeps.
type UpdateStrategy int

const (
	// StrategyBranch is the paper's two-stage scheme: whole-matrix
	// delta SpMM, barrier, then whole root subtrees distributed to
	// threads for the update.
	StrategyBranch UpdateStrategy = iota
	// StrategyCSR bypasses the compression tree and multiplies the
	// original matrix directly with the diag-scaled CSR kernel — the
	// winning plan when compression bought nothing and the tree update
	// is pure overhead. Available only while the matrix carries its
	// source CSR (HasCSRPlan); its summation order differs from the
	// two-stage plan, so results agree within floating-point tolerance
	// rather than bitwise.
	StrategyCSR
)

func (s UpdateStrategy) String() string {
	switch s {
	case StrategyBranch:
		return "branch"
	case StrategyCSR:
		return "csr"
	default:
		return fmt.Sprintf("UpdateStrategy(%d)", int(s))
	}
}

// MulToStrategy is MulTo with an explicit execution plan (no
// auto-selection).
//
//cbm:hotpath
func (m *Matrix) MulToStrategy(c, b *dense.Matrix, threads int, strat UpdateStrategy) {
	m.mulStrategy(c, b, threads, strat, obs.Global)
}

//cbm:hotpath
func (m *Matrix) mulStrategy(c, b *dense.Matrix, threads int, strat UpdateStrategy, sink obs.Sink) {
	if b.Rows != m.n {
		panic(fmt.Sprintf("cbm: Mul shape mismatch: %d×%d · %d×%d", m.n, m.n, b.Rows, b.Cols))
	}
	if c.Rows != m.n || c.Cols != b.Cols {
		panic(fmt.Sprintf("cbm: Mul output shape mismatch: got %d×%d, want %d×%d", c.Rows, c.Cols, m.n, b.Cols))
	}
	sink.Inc(obs.CounterMulCalls)
	switch strat {
	case StrategyBranch:
		m.mulTwoStage(c, b, threads, sink)
	case StrategyCSR:
		m.mulCSR(c, b, threads, sink)
	default:
		panic(strategyPanicMsg(strat, m.n))
	}
}

// strategyPanicMsg builds the panic text for an unknown strategy, out
// of line for the same hotalloc reason as kindPanicMsg.
func strategyPanicMsg(s UpdateStrategy, n int) string {
	return fmt.Sprintf("cbm: unknown update strategy %d (%v) on %d×%d matrix", int(s), s, n, n)
}

// MulVec computes y = M·v for a dense vector (the matrix-vector product
// of Sec. IV): the two-stage plan on v as an n×1 operand.
func (m *Matrix) MulVec(v []float32) []float32 {
	return m.MulVecParallel(v, 1)
}

// MulVecParallel is MulVec with the given thread count. Per-element
// operation order does not depend on the thread count, so the result
// is bitwise identical to MulVec.
func (m *Matrix) MulVecParallel(v []float32, threads int) []float32 {
	if len(v) != m.n {
		panic(fmt.Sprintf("cbm: MulVec shape mismatch: matrix is %dx%d, len(v)=%d", m.n, m.n, len(v)))
	}
	obs.Inc(obs.CounterMulVecCalls)
	y := dense.New(m.n, 1)
	m.mulTwoStage(y, &dense.Matrix{Rows: m.n, Cols: 1, Data: v}, threads, obs.Global)
	return y.Data
}
