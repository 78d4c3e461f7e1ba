// Package kernels provides the sparse-dense matrix multiplication
// (SpMM) kernels that play the role of Intel MKL's CSR kernels in the
// paper: C = S·B with S in CSR format and B, C dense row-major float32
// matrices, in sequential and multi-threaded variants. The same kernel
// is used both by the CSR baseline and by the multiplication stage of
// the CBM format (applied to the delta matrix), so speedup comparisons
// isolate the effect of the format, exactly as in the paper.
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
// measuring through an obs.Recorder (AutoTune, the bench report)
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
	sink.Inc(obs.CounterSpMMCalls)
	// Sequential fast path: run the row loop inline, with a plain
	// Begin/End span instead of the obs.Do closure — both the loop-body
	// and the Do closures heap-allocate at this call site even when the
	// schedule is single-threaded, which the zero-allocation serving
	// path cannot afford. (Tradeoff: no pprof stage label here; labels
	// exist to attribute pool-worker samples, which a sequential run
	// does not have.)
	if parallel.Sequential(threads, s.Rows) {
		sp := sink.Begin(obs.StageSpMM)
		for i := 0; i < s.Rows; i++ {
			spmmRow(c, s, b, i)
		}
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
	obs.DoWith(sink, obs.StageSpMM, func() {
		parallel.ForDynamic(s.Rows, threads, grain, func(i int) {
			spmmRow(c, s, b, i)
		})
	})
}

// spmmRow computes one output row: c[i,:] = Σ_k s[i,k]·b[k,:].
//
//cbm:hotpath
func spmmRow(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, i int) {
	cols, vals := s.Row(i)
	crow := c.Row(i)
	blas.Fill(crow, 0)
	// Binary fast path: when all values in the row are 1 the multiply
	// reduces to summing B rows, which is what adjacency matrices hit.
	for k, col := range cols {
		v := vals[k]
		if v == 1 {
			blas.Add(b.Row(int(col)), crow)
		} else {
			blas.Axpy(v, b.Row(int(col)), crow)
		}
	}
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
	sink.Inc(obs.CounterSpMMCalls)
	if parallel.Sequential(threads, s.Rows) {
		sp := sink.Begin(obs.StageSpMM)
		for i := 0; i < s.Rows; i++ {
			spmmDiagRow(c, s, b, left, right, i)
		}
		sp.End()
		return
	}
	grain := s.Rows / (8 * parallel.EffectiveThreads(threads, s.Rows))
	if grain < 16 {
		grain = 16
	}
	obs.DoWith(sink, obs.StageSpMM, func() {
		parallel.ForDynamic(s.Rows, threads, grain, func(i int) {
			spmmDiagRow(c, s, b, left, right, i)
		})
	})
}

// spmmDiagRow computes one diag-scaled output row:
// c[i,:] = left[i] · Σ_k s[i,k]·right[k]·b[k,:].
//
//cbm:hotpath
func spmmDiagRow(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, i int) {
	cols, vals := s.Row(i)
	crow := c.Row(i)
	blas.Fill(crow, 0)
	if right == nil {
		for k, col := range cols {
			if v := vals[k]; v == 1 {
				blas.Add(b.Row(int(col)), crow)
			} else {
				blas.Axpy(v, b.Row(int(col)), crow)
			}
		}
	} else {
		for k, col := range cols {
			if v := vals[k] * right[col]; v == 1 {
				blas.Add(b.Row(int(col)), crow)
			} else {
				blas.Axpy(v, b.Row(int(col)), crow)
			}
		}
	}
	if left != nil {
		blas.Scal(left[i], crow)
	}
}

func threadsOrDefault(t int) int {
	if t < 1 {
		return parallel.DefaultThreads()
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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
