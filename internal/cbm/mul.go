// Matrix multiplication kernels for the CBM format (Sec. IV–V).
//
// C = M·B is computed in two stages:
//
//  1. Multiplication stage: C ← A'·B (or (AD)'·B), a plain sparse-dense
//     product on the delta matrix, delegated to the same SpMM kernel
//     the CSR baseline uses (the paper delegates to Intel MKL here).
//     For DAD matrices the kernel also applies Eq. 6's row scale d_x at
//     its single store per row, so every row leaves this stage as
//     d_x·((AD)'B)_x and a row hanging off the virtual root is final.
//  2. Update stage: the compression tree is traversed in topological
//     order; each row with a real parent accumulates its parent's
//     finished row (an axpy), scaled by d_x/d_parent for DAD matrices,
//     in kernels.TreeUpdate. Branches hanging off the virtual root are
//     independent, so the parallel variant distributes blocks of whole
//     branches to threads with dynamic scheduling, one kernel call per
//     block; sequentially one call covers them all.
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

// MulTo computes c = M·b into the pre-allocated output c (overwritten)
// with the paper's two-stage pipeline: whole-matrix delta SpMM,
// barrier, tree update. Per-element operation order does not depend on
// the thread count, so the result is bitwise identical at every thread
// count.
//
//cbm:hotpath
func (m *Matrix) MulTo(c, b *dense.Matrix, threads int) {
	m.mul(c, b, threads, obs.Global)
}

// MulToCtx is MulTo driven by an execution context: the thread budget
// and the observability sink come from ctx instead of bare parameters.
// It is the entry point the gnn Adjacency backends use on the pooled
// forward path.
//
//cbm:hotpath
func (m *Matrix) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	m.mul(c, b, ctx.Threads(), ctx.Sink())
}

//cbm:hotpath
func (m *Matrix) mul(c, b *dense.Matrix, threads int, sink obs.Sink) {
	if b.Rows != m.n {
		panic(fmt.Sprintf("cbm: Mul shape mismatch: %d×%d · %d×%d", m.n, m.n, b.Rows, b.Cols))
	}
	if c.Rows != m.n || c.Cols != b.Cols {
		panic(fmt.Sprintf("cbm: Mul output shape mismatch: got %d×%d, want %d×%d", c.Rows, c.Cols, m.n, b.Cols))
	}
	sink.Inc(obs.CounterMulCalls)
	m.mulTwoStage(c, b, threads, sink)
}

// mulTwoStage is the paper's Sec. V-A pipeline: delta SpMM over every
// row, full barrier, then the branch-parallel tree update.
//
//cbm:hotpath
func (m *Matrix) mulTwoStage(c, b *dense.Matrix, threads int, sink obs.Sink) {
	// The DAD row scale d_x rides on the SpMM's left diagonal, so the
	// update stage visits only rows with a real parent.
	var diag []float32
	switch m.kind {
	case KindA, KindAD:
	case KindDAD:
		diag = m.diag
	default:
		panic(kindPanicMsg(m.kind, m.n))
	}
	kernels.SpMMDiagTo(c, m.delta, b, diag, nil, threads, sink)
	// Branches are stored largest first, so the single-row ones, whose
	// root row the SpMM has already finished, are the tail of m.order:
	// the update stops before them.
	nb := m.multiRowBranches()
	off := m.branchOff[:nb+1]
	rows := int(off[nb])
	sp := sink.Begin(obs.StageUpdate)
	if parallel.Sequential(threads, nb) {
		// The branches are stored back to back, so one kernel call
		// updates them all.
		kernels.TreeUpdate(c, m.order[:rows], m.parent, diag)
	} else {
		// Blocks of whole branches, about grain rows each, the SpMM's
		// row grain: block k is the branches whose first row sits in
		// m.order[k·grain : (k+1)·grain], so a branch longer than grain
		// is a block on its own (the blocks inside it are empty) and
		// short branches share one kernel call.
		grain := rows / (8 * parallel.EffectiveThreads(threads, nb))
		if grain < 16 {
			grain = 16
		}
		parallel.ForDynamic((rows+grain-1)/grain, threads, 1, func(k int) {
			lo, _ := slices.BinarySearch(off, int32(k*grain))
			hi, _ := slices.BinarySearch(off, int32(min((k+1)*grain, rows)))
			if lo < hi {
				kernels.TreeUpdate(c, m.order[off[lo]:off[hi]], m.parent, diag)
			}
		})
	}
	sp.End()
}

// multiRowBranches returns how many branches hold more than one row:
// branches are stored largest first, so these are the leading ones.
//
//cbm:hotpath
func (m *Matrix) multiRowBranches() int {
	lo, hi := 0, m.NumBranches()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.branchOff[mid+1]-m.branchOff[mid] > 1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
