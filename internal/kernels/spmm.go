// Package kernels provides the sparse-dense matrix multiplication
// (SpMM) kernels that play the role of Intel MKL's CSR kernels in the
// paper: C = S·B with S in CSR format and B, C dense row-major float32
// matrices, in sequential and multi-threaded variants. The same kernel
// is used both by the CSR baseline and by the multiplication stage of
// the CBM format (applied to the delta matrix), so speedup comparisons
// isolate the effect of the format, exactly as in the paper.
//
// SpMMTo and SpMMDiagTo share one row-range function. On amd64 with
// AVX one assembly call covers a whole block of rows, keeping each
// 8-column strip of an output row in a YMM register across all of the
// row's nonzeros and storing it once; the n mod 8 tail columns, and
// every column off amd64, run the portable loop, which is the reference
// the AVX kernel matches bit for bit. TreeUpdate is the same idea for
// the CBM update stage: one call per run of tree rows.
package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// SpMM computes C = S·B sequentially and returns C.
func SpMM(s *sparse.CSR, b *dense.Matrix) *dense.Matrix {
	c := dense.New(s.Rows, b.Cols)
	SpMMTo(c, s, b, 1)
	return c
}

// SpMMParallel computes C = S·B with the given number of threads
// (threads < 1 selects the default) and returns C.
func SpMMParallel(s *sparse.CSR, b *dense.Matrix, threads int) *dense.Matrix {
	c := dense.New(s.Rows, b.Cols)
	SpMMTo(c, s, b, threads)
	return c
}

// SpMMTo computes c = s·b into the pre-allocated c (overwritten).
// Rows of the output are distributed to threads in dynamically
// scheduled chunks so skewed degree distributions balance.
//
//cbm:hotpath
func SpMMTo(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, threads int) {
	SpMMToSink(c, s, b, threads, obs.Global)
}

// SpMMToSink is SpMMTo with an explicit observability sink, so callers
// measuring through an obs.Recorder (the bench report, perfbench)
// get the SpMM stage attributed to exactly their own calls.
//
//cbm:hotpath
func SpMMToSink(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, threads int, sink obs.Sink) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMM shape mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMM output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	spmmDiag(c, s, b, nil, nil, threads, sink)
}

// SpMMDiagTo computes c = diag(left)·s·diag(right)·b without ever
// materializing the scaled sparse matrix: row i accumulates
// right[j]·s[i,j]·b[j,:] over the row's nonzeros and is then scaled by
// left[i]. A nil diagonal means identity. This is the memory-free CSR
// execution plan for the scaled factorizations (AD: right only; DAD:
// both) — what cbm.StrategyCSR runs when the plan rule decides the
// compression tree does not pay on a graph. Per-row accumulation order
// is the stored column order and rows are independent, so results are
// bitwise identical across thread counts.
//
//cbm:hotpath
func SpMMDiagTo(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, threads int, sink obs.Sink) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMMDiag shape mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMMDiag output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	if left != nil && len(left) != s.Rows {
		panic(fmt.Sprintf("kernels: SpMMDiag left diagonal length %d, want %d", len(left), s.Rows))
	}
	if right != nil && len(right) != s.Cols {
		panic(fmt.Sprintf("kernels: SpMMDiag right diagonal length %d, want %d", len(right), s.Cols))
	}
	spmmDiag(c, s, b, left, right, threads, sink)
}

// spmmDiag runs spmmRows over every output row of
// c = diag(left)·s·diag(right)·b, shapes already checked. Rows of the
// output are distributed to threads in dynamically scheduled blocks so
// skewed degree distributions balance; each block is one spmmRows call.
//
//cbm:hotpath
func spmmDiag(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, threads int, sink obs.Sink) {
	sink.Inc(obs.CounterSpMMCalls)
	// Sequential fast path: the whole row range in one call, with a
	// plain Begin/End span instead of the obs.Do closure — both the
	// loop-body and the Do closures heap-allocate at this call site even
	// when the schedule is single-threaded, which the zero-allocation
	// serving path cannot afford. (Tradeoff: no pprof stage label here;
	// labels exist to attribute pool-worker samples, which a sequential
	// run does not have.)
	if parallel.Sequential(threads, s.Rows) {
		sp := sink.Begin(obs.StageSpMM)
		spmmRows(c, s, b, left, right, 0, s.Rows)
		sp.End()
		return
	}
	// Grain: enough rows that scheduling overhead amortizes, small
	// enough that heavy rows don't serialize the tail. Derived from the
	// thread count the parallel loop will actually use — the raw request
	// can exceed it for small matrices, which used to undersize the
	// divisor and produce oversized grains.
	grain := s.Rows / (8 * parallel.EffectiveThreads(threads, s.Rows))
	if grain < 16 {
		grain = 16
	}
	nblocks := (s.Rows + grain - 1) / grain
	obs.DoWith(sink, obs.StageSpMM, func() {
		parallel.ForDynamic(nblocks, threads, 1, func(blk int) {
			lo := blk * grain
			spmmRows(c, s, b, left, right, lo, min(lo+grain, s.Rows))
		})
	})
}

// spmmRowPortable computes columns [lo, b.Cols) of output row i,
// overwriting them: c[i,j] = left[i] · Σ_k s[i,k]·right[k]·b[k,j], with
// the nonzeros in stored order and a nil diagonal meaning identity. It
// is the whole row kernel off amd64 and the reference the AVX kernel
// matches bit for bit.
//
//cbm:hotpath
func spmmRowPortable(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, i, lo int) {
	cols, vals := s.Row(i)
	crow := c.Row(i)[lo:]
	blas.Fill(crow, 0)
	for k, col := range cols {
		v := vals[k]
		if right != nil {
			v *= right[col]
		}
		// Binary fast path: adjacency rows of ones sum B rows.
		if brow := b.Row(int(col))[lo:]; v == 1 {
			blas.Add(brow, crow)
		} else {
			blas.Axpy(v, brow, crow)
		}
	}
	if left != nil {
		blas.Scal(left[i], crow)
	}
}

// SpMV computes y = S·x sequentially for a dense vector x.
func SpMV(s *sparse.CSR, x []float32) []float32 {
	if s.Cols != len(x) {
		panic(fmt.Sprintf("kernels: SpMV shape mismatch: matrix is %dx%d, len(x)=%d", s.Rows, s.Cols, len(x)))
	}
	y := make([]float32, s.Rows)
	for i := 0; i < s.Rows; i++ {
		cols, vals := s.Row(i)
		var acc float32
		for k, c := range cols {
			acc += vals[k] * x[c]
		}
		y[i] = acc
	}
	return y
}
