//go:build !amd64

package kernels

import (
	"repro/internal/dense"
	"repro/internal/sparse"
)

// useAVX is false off amd64: every row runs the portable loop.
const useAVX = false

// spmmRow computes output row i of c = diag(left)·s·diag(right)·b,
// overwriting it, with the portable loop.
//
//cbm:hotpath
func spmmRow(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, left, right []float32, i int) {
	spmmRowPortable(c, s, b, left, right, i, 0)
}
