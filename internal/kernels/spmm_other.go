//go:build !amd64

package kernels

import (
	"repro/internal/dense"
	"repro/internal/sparse"
)

// useAVX is false off amd64: every row runs the portable loops.
const useAVX = false

// spmmRows computes output rows [lo, hi) of
// c = diag(left)·s·diag(right)·b, overwriting them, with the portable
// loop.
//
//cbm:hotpath
func spmmRows(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		spmmRowPortable(c, s, b, left, right, i, 0)
	}
}
