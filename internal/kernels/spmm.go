// Package kernels provides the sparse-dense matrix multiplication
// (SpMM) kernels that play the role of Intel MKL's CSR kernels in the
// paper: C = S·B with S in CSR format and B, C dense row-major float32
// matrices, in sequential and multi-threaded variants. The same kernel
// is used both by the CSR baseline and by the multiplication stage of
// the CBM format (applied to the delta matrix), so speedup comparisons
// isolate the effect of the format, exactly as in the paper.
//
// SpMMTo, SpMMDiagTo and SpMMTreeTo share one row-range function. On
// amd64 with AVX one assembly call covers a whole block of rows,
// keeping each 8-column strip of an output row in a YMM register across
// all of the row's nonzeros and storing it once; the n mod 8 tail
// columns, and every column off amd64, run the portable loop, which is
// the reference the AVX kernel matches bit for bit. For the CBM product
// the same call takes the rows in compression-tree pre-order and adds
// the parent row (Eq. 6) before the store, so the update stage costs no
// pass of its own.
package kernels

import (
	"fmt"
	"slices"

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
	spmmDiag(c, s, b, nil, nil, nil, nil, nil, threads, obs.Global)
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
	spmmDiag(c, s, b, left, right, nil, nil, nil, threads, sink)
}

// SpMMTreeTo computes the CBM product c = M·b from its delta matrix s
// (A' or (AD)'), its compression tree and, for DAD matrices, its
// diagonal left, in one pass over the rows (Sec. V-A, Eq. 6). order
// lists every row, branch by branch in pre-order, and branch bi is
// order[branchOff[bi]:branchOff[bi+1]]; parent[x] is row x's tree
// parent, or −1 for the virtual root. Row x is first the delta row
// product, scaled by left[x] when left is set, exactly as SpMMDiagTo
// stores it; if x has a real parent p the row then adds c_p, or
// (left[x]/left[p])·c_p with a diagonal, and is stored once. Pre-order
// puts p before x, so c_p is final when x reads it. Threads take blocks
// of whole branches, about as many rows as SpMMDiagTo's blocks, so the
// whole product is one parallel region and one call per block. order,
// parent and branchOff are trusted to describe such a tree: the AVX
// path does not bounds-check the rows they name.
//
//cbm:hotpath
func SpMMTreeTo(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left []float32, order, parent, branchOff []int32, threads int, sink obs.Sink) {
	if s.Rows != s.Cols || s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMMTree shape mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMMTree output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	if len(order) != s.Rows || len(parent) != s.Rows || len(branchOff) == 0 || int(branchOff[len(branchOff)-1]) != s.Rows {
		panic(fmt.Sprintf("kernels: SpMMTree tree lists %d rows, %d parents and %d branch offsets, want %d rows",
			len(order), len(parent), len(branchOff), s.Rows))
	}
	if left != nil && len(left) != s.Rows {
		panic(fmt.Sprintf("kernels: SpMMTree left diagonal length %d, want %d", len(left), s.Rows))
	}
	spmmDiag(c, s, b, left, nil, order, parent, branchOff, threads, sink)
}

// spmmDiag runs spmmRows over every output row of
// c = diag(left)·s·diag(right)·b, shapes already checked, taking the
// rows from order with parent's Eq. 6 epilogue when they are set. Rows
// of the output are distributed to threads in dynamically scheduled
// blocks so skewed degree distributions balance; each block is one
// spmmRows call. With a tree the blocks are whole branches: block k is
// the branches whose first row sits at positions [k·grain, (k+1)·grain)
// of order, so a branch longer than grain is a block on its own (the
// blocks inside it are empty) and short branches share one call.
//
//cbm:hotpath
func spmmDiag(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, order, parent, branchOff []int32, threads int, sink obs.Sink) {
	sink.Inc(obs.CounterSpMMCalls)
	sp := sink.Begin(obs.StageSpMM)
	if parallel.Sequential(threads, s.Rows) {
		spmmRows(c, s, b, left, right, order, parent, 0, s.Rows)
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
			lo, hi := blk*grain, min((blk+1)*grain, s.Rows)
			if branchOff != nil {
				lo, hi = branchStart(branchOff, lo), branchStart(branchOff, hi)
			}
			spmmRows(c, s, b, left, right, order, parent, lo, hi)
		})
	}
	sp.End()
}

// branchStart returns the position in order of the first branch that
// starts at or after pos (the row count when none does).
//
//cbm:hotpath
func branchStart(branchOff []int32, pos int) int {
	k, _ := slices.BinarySearch(branchOff, int32(pos))
	return int(branchOff[k])
}

// spmmRowPortable computes columns [lo, b.Cols) of output row i,
// overwriting them: c[i,j] = left[i] · Σ_k s[i,k]·right[k]·b[k,j], with
// the nonzeros in stored order and a nil diagonal meaning identity.
// With parent set and p = parent[i] ≥ 0 the row then adds row p of c,
// as blas.Add does, or with left set (left[i]/left[p])·c[p,:], as
// blas.Axpy does. It is the whole row kernel off amd64 and the
// reference the AVX kernel matches bit for bit.
//
//cbm:hotpath
func spmmRowPortable(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, parent []int32, i, lo int) {
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
	if parent == nil || parent[i] < 0 {
		return // no tree, or the virtual root's zero row: nothing to add
	}
	p := int(parent[i])
	if prow := c.Row(p)[lo:]; left == nil {
		blas.Add(prow, crow)
	} else {
		blas.Axpy(left[i]/left[p], prow, crow)
	}
}

// rowAt returns the output row at position k of a row range: order[k],
// or k itself without an order.
//
//cbm:hotpath
func rowAt(order []int32, k int) int {
	if order == nil {
		return k
	}
	return int(order[k])
}
