// Matrix multiplication kernels for the CBM format (Sec. IV–V).
//
// C = M·B is computed in one pass over the rows in compression-tree
// pre-order, by the same SpMM row kernel the CSR baseline uses (the
// paper delegates to Intel MKL here), kernels.SpMMTreeTo. Each row
// first gets its delta product, A'·B (or (AD)'·B), scaled for DAD
// matrices by Eq. 6's d_x; a row with a real parent then adds its
// parent's finished row, scaled by d_x/d_parent for DAD matrices (the
// paper's update stage), and is stored once. Pre-order puts every
// parent before its children. Branches hanging off the virtual root are
// independent, so threads take blocks of whole branches with dynamic
// scheduling, one kernel call per block; sequentially one call covers
// them all. The operations and their order per element are those of
// the paper's two-stage pipeline (delta SpMM, barrier, update), so the
// result is bitwise the same.
//
// Property 3 holds: no scratch proportional to the matrix size is
// allocated; everything happens in the output matrix C.

package cbm

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
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
// in one pass over the rows in compression-tree pre-order. Per-element
// operation order does not depend on the thread count, so the result
// is bitwise identical at every thread count.
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
	m.mulTree(c, b, threads, sink)
}

// mulTree runs the one-pass product: one kernel call per block of
// branches, in one parallel region with one StageSpMM span. The DAD
// diagonal is both the rows' scale d_x and the source of d_x/d_p.
//
//cbm:hotpath
func (m *Matrix) mulTree(c, b *dense.Matrix, threads int, sink obs.Sink) {
	var diag []float32
	switch m.kind {
	case KindA, KindAD:
	case KindDAD:
		diag = m.diag
	default:
		panic(kindPanicMsg(m.kind, m.n))
	}
	kernels.SpMMTreeTo(c, m.delta, b, diag, m.order, m.parent, m.branchOff, threads, sink)
}

// MulVec computes y = M·v for a dense vector (the matrix-vector product
// of Sec. IV): the one-pass product on v as an n×1 operand.
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
	m.mulTree(y, &dense.Matrix{Rows: m.n, Cols: 1, Data: v}, threads, obs.Global)
	return y.Data
}
