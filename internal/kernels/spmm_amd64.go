package kernels

import (
	"unsafe"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// useAVX is the package-wide CPU probe from blas, fixed at init.
// Without it every row runs the portable spmmRowPortable.
var useAVX = blas.HasAVX()

// spmmRowAVX overwrites c[0 : 8·strips] with one diag-scaled CSR output
// row; right may be nil, and left is 1 for no left diagonal.
// Implemented in spmm_amd64.s.
//
//go:noescape
func spmmRowAVX(c, b *float32, cols *int32, vals, right *float32, nnz, n, strips int, left float32)

// spmmRow computes output row i of c = diag(left)·s·diag(right)·b,
// overwriting it: the assembly kernel fills every full 8-column strip
// and the n mod 8 tail columns run the portable loop. Every output
// element sees the same products, in the same order, rounded the same
// way as in spmmRowPortable, so the row is bitwise identical.
//
//cbm:hotpath
func spmmRow(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, i int) {
	full := b.Cols &^ 7
	if !useAVX || full == 0 {
		spmmRowPortable(c, s, b, left, right, i, 0)
		return
	}
	cols, vals := s.Row(i)
	l := float32(1)
	if left != nil {
		l = left[i]
	}
	spmmRowAVX(&c.Row(i)[0], unsafe.SliceData(b.Data), unsafe.SliceData(cols), unsafe.SliceData(vals),
		unsafe.SliceData(right), len(cols), b.Cols, full/8, l)
	if full < b.Cols {
		spmmRowPortable(c, s, b, left, right, i, full)
	}
}
