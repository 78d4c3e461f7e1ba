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
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMM shape mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMM output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	spmmDiag(c, s, b, nil, nil, threads, obs.Global)
}

// SpMMDiagTo computes c = diag(left)·s·diag(right)·b without ever
// materializing the scaled sparse matrix: row i accumulates
// right[j]·s[i,j]·b[j,:] over the row's nonzeros and is then scaled by
// left[i], once, at the row's single store. A nil diagonal means
// identity. The CBM multiplication stage passes the DAD diagonal as
// left, which applies Eq. 6's row scale d_x to the delta product in
// the same pass. Per-row accumulation order is the stored column order
// and rows are independent, so results are bitwise identical across
// thread counts. Its spans and counters go to sink, so callers
// measuring through an obs.Recorder get the SpMM stage attributed to
// exactly their own calls.
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
	sp := sink.Begin(obs.StageSpMM)
	if parallel.Sequential(threads, s.Rows) {
		spmmRows(c, s, b, left, right, 0, s.Rows)
	} else {
		// Grain: enough rows that scheduling overhead amortizes, small
		// enough that heavy rows don't serialize the tail. Derived from
		// the thread count the parallel loop will actually use, which is
		// below the raw request for small matrices.
		grain := s.Rows / (8 * parallel.EffectiveThreads(threads, s.Rows))
		if grain < 16 {
			grain = 16
		}
		parallel.ForDynamic((s.Rows+grain-1)/grain, threads, 1, func(blk int) {
			lo := blk * grain
			spmmRows(c, s, b, left, right, lo, min(lo+grain, s.Rows))
		})
	}
	sp.End()
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
