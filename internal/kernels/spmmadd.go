package kernels

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// SpMMAddTo computes c += s·b into the pre-allocated c (accumulating —
// the existing contents of c are kept, unlike SpMMTo which overwrites).
// This is the halo-exchange kernel of the shard layer: each shard's
// intra-block product fills its output slab, then the halo remainder is
// accumulated on top.
//
//cbm:hotpath
func SpMMAddTo(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, threads int) {
	SpMMAddToSink(c, s, b, threads, obs.Global)
}

// SpMMAddToSink is SpMMAddTo with an explicit observability sink.
// Per-row accumulation order is the stored column order and rows are
// independent, so results are bitwise identical across thread counts.
//
//cbm:hotpath
func SpMMAddToSink(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, threads int, sink obs.Sink) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMMAdd shape mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMMAdd output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	sink.Inc(obs.CounterSpMMCalls)
	// Sequential fast path mirrors SpMMToSink: inline loop with a plain
	// span so the zero-allocation serving path stays closure-free.
	if parallel.Sequential(threads, s.Rows) {
		sp := sink.Begin(obs.StageSpMM)
		for i := 0; i < s.Rows; i++ {
			spmmAddRow(c, s, b, i)
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
			spmmAddRow(c, s, b, i)
		})
	})
}

// spmmAddRow accumulates one output row: c[i,:] += Σ_k s[i,k]·b[k,:].
// It is spmmRowPortable without the zero fill and the diagonals.
//
//cbm:hotpath
func spmmAddRow(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, i int) {
	cols, vals := s.Row(i)
	crow := c.Row(i)
	for k, col := range cols {
		v := vals[k]
		if v == 1 {
			blas.Add(b.Row(int(col)), crow)
		} else {
			blas.Axpy(v, b.Row(int(col)), crow)
		}
	}
}
