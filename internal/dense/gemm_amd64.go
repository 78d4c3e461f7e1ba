package dense

import (
	"math"
	"unsafe"

	"repro/internal/blas"
)

// useAVX is the package-wide CPU probe from blas (AVX on the CPU, YMM
// state saved by the OS), fixed at init. Without it MulTo runs the
// portable mulRows.
var useAVX = blas.HasAVX()

// gemmRowsAVX overwrites the first 8·strips columns of rows
// consecutive rows of c (row-major, n columns) with the product of the
// matching rows of a (row-major, k columns) and the row-major k×n
// matrix b, each a[i,k] raised to floor first: one mul-then-add per
// term in k order. b must be finite. Implemented in gemm_amd64.s.
//
//go:noescape
func gemmRowsAVX(c, a, b *float32, rows, k, n, strips int, floor float32)

// mulRowsKernel computes output rows [lo, hi) of c = a·b (of
// c = max(a, 0)·b when relu is set), overwriting them, with the AVX
// kernel if avx is set and the portable mulRows otherwise.
//
//cbm:hotpath
func mulRowsKernel(c, a, b *Matrix, lo, hi int, relu, avx bool) {
	if avx {
		mulRowsAVX(c, a, b, lo, hi, relu)
		return
	}
	mulRows(c, a, b, lo, hi, relu)
}

// mulRowsAVX is the AVX path of mulRowsKernel: one assembly call fills
// every full 8-column strip of rows [lo, hi), and the n mod 8 tail
// columns run mulRows' own axpy loop. Skipping a term and adding its
// ±0 product leave the same bits when b is finite, and the floor
// (+0 for relu, -Inf otherwise) turns exactly the terms mulRows skips
// into ±0, so every output element sees the same products, in the same
// k order, rounded the same way as in mulRows: the result is bitwise
// identical.
//
//cbm:hotpath
func mulRowsAVX(c, a, b *Matrix, lo, hi int, relu bool) {
	k, n := a.Cols, b.Cols
	full := n &^ 7
	if full > 0 && hi > lo {
		floor := float32(math.Inf(-1))
		if relu {
			floor = 0
		}
		// a and b may be empty (K = 0); the kernel then reads neither
		// and writes zeros.
		gemmRowsAVX(&c.Data[lo*n], unsafe.SliceData(a.Data[lo*k:]), unsafe.SliceData(b.Data), hi-lo, k, n, full/8, floor)
	}
	if full == n {
		return
	}
	for i := lo; i < hi; i++ {
		mulRow(c.Row(i)[full:], a.Row(i), b, full, relu)
	}
}
