package kernels

import (
	"unsafe"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// useAVX is the package-wide CPU probe from blas, fixed at init.
// Without it every row runs the portable loops.
var useAVX = blas.HasAVX()

// spmmRowsAVX overwrites columns [0, 8·strips) of rows [lo, hi) of one
// diag-scaled CSR product; right and left may be nil (identity).
// Implemented in spmm_amd64.s.
//
//go:noescape
func spmmRowsAVX(c, b *float32, rowptr, cols *int32, vals, right, left *float32, lo, hi, n, strips int)

// spmmRows computes output rows [lo, hi) of c = diag(left)·s·diag(right)·b,
// overwriting them: one assembly call fills every full 8-column strip
// of the whole range and the n mod 8 tail columns run the portable
// loop. Every output element sees the same products, in the same order,
// rounded the same way as in spmmRowPortable, so the rows are bitwise
// identical.
//
//cbm:hotpath
func spmmRows(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, lo, hi int) {
	full := b.Cols &^ 7
	if !useAVX || full == 0 {
		for i := lo; i < hi; i++ {
			spmmRowPortable(c, s, b, left, right, i, 0)
		}
		return
	}
	spmmRowsAVX(unsafe.SliceData(c.Data), unsafe.SliceData(b.Data), unsafe.SliceData(s.RowPtr),
		unsafe.SliceData(s.ColIdx), unsafe.SliceData(s.Vals), unsafe.SliceData(right), unsafe.SliceData(left),
		lo, hi, b.Cols, full/8)
	if full < b.Cols {
		for i := lo; i < hi; i++ {
			spmmRowPortable(c, s, b, left, right, i, full)
		}
	}
}
