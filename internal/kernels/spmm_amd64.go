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

// spmmRowsAVX overwrites columns [0, 8·strips) of the output rows at
// positions [lo, hi) of one diag-scaled CSR product, with the tree
// epilogue when parent is set; right, left, order and parent may be nil.
// Implemented in spmm_amd64.s.
//
//go:noescape
func spmmRowsAVX(c, b *float32, rowptr, cols *int32, vals, right, left *float32, order, parent *int32, lo, hi, n, strips int)

// spmmRows computes the output rows at positions [lo, hi) of
// c = diag(left)·s·diag(right)·b, overwriting them: the rows themselves
// when order is nil, order[lo:hi] otherwise, each followed by parent's
// Eq. 6 epilogue when parent is set (spmmRowPortable). One assembly
// call fills every full 8-column strip of the whole range and the
// n mod 8 tail columns run the portable loop afterwards, in the same
// row order, so a parent's tail is final before its children read it.
// Every output element sees the same operations, in the same order,
// rounded the same way as in spmmRowPortable, so the rows are bitwise
// identical.
//
//cbm:hotpath
func spmmRows(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, order, parent []int32, lo, hi int) {
	full := b.Cols &^ 7
	if !useAVX {
		full = 0
	}
	if full > 0 {
		spmmRowsAVX(unsafe.SliceData(c.Data), unsafe.SliceData(b.Data), unsafe.SliceData(s.RowPtr),
			unsafe.SliceData(s.ColIdx), unsafe.SliceData(s.Vals), unsafe.SliceData(right), unsafe.SliceData(left),
			unsafe.SliceData(order), unsafe.SliceData(parent), lo, hi, b.Cols, full/8)
	}
	if full < b.Cols {
		for k := lo; k < hi; k++ {
			spmmRowPortable(c, s, b, left, right, parent, rowAt(order, k), full)
		}
	}
}
