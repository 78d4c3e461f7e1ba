//go:build !amd64

package kernels

import (
	"repro/internal/dense"
	"repro/internal/sparse"
)

// useAVX is false off amd64: every row runs the portable loops.
const useAVX = false

// spmmRows computes the output rows at positions [lo, hi) of
// c = diag(left)·s·diag(right)·b, overwriting them (the rows themselves
// when order is nil, order[lo:hi] otherwise, each with parent's Eq. 6
// epilogue when parent is set), with the portable loop.
//
//cbm:hotpath
func spmmRows(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, order, parent []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		spmmRowPortable(c, s, b, left, right, parent, rowAt(order, k), 0)
	}
}
