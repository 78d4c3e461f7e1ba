package dense

import (
	"unsafe"

	"repro/internal/blas"
)

// useAVX is the package-wide CPU probe from blas (AVX on the CPU, YMM
// state saved by the OS), fixed at init. Without it MulTo runs the
// portable mulRows.
var useAVX = blas.HasAVX()

// gemmRowAVX overwrites c[0 : 8·strips] with the product of the k-long
// row a and the row-major k×n matrix b, one mul-then-add per term in k
// order, skipping ±0 terms. Implemented in gemm_amd64.s.
//
//go:noescape
func gemmRowAVX(c, a, b *float32, k, n, strips int)

// mulRowsKernel computes output rows [lo, hi) of c = a·b, overwriting
// them, with the kernel chosen at init.
//
//cbm:hotpath
func mulRowsKernel(c, a, b *Matrix, lo, hi int) {
	if useAVX {
		mulRowsAVX(c, a, b, lo, hi)
		return
	}
	mulRows(c, a, b, lo, hi)
}

// mulRowsAVX is the AVX path of mulRowsKernel: the assembly kernel
// fills every full 8-column strip of a row, and the n mod 8 tail
// columns run mulRows' own axpy loop. Every output element sees the
// same products, in the same k order, rounded the same way as in
// mulRows, so the result is bitwise identical.
//
//cbm:hotpath
func mulRowsAVX(c, a, b *Matrix, lo, hi int) {
	n := b.Cols
	full := n &^ 7
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		if full > 0 {
			// a and b may be empty (K = 0); the kernel then reads
			// neither and writes zeros.
			gemmRowAVX(&crow[0], unsafe.SliceData(arow), unsafe.SliceData(b.Data), len(arow), n, full/8)
		}
		if full == n {
			continue
		}
		tail := crow[full:]
		clear(tail)
		for k, av := range arow {
			if av != 0 {
				blas.Axpy(av, b.Row(k)[full:], tail)
			}
		}
	}
}
