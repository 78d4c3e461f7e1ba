//go:build !amd64

package dense

// useAVX is false off amd64: MulTo always runs the portable mulRows.
const useAVX = false

// mulRowsKernel computes output rows [lo, hi) of c = a·b (of
// c = max(a, 0)·b when relu is set), overwriting them, with the
// portable kernel; avx is always false here.
//
//cbm:hotpath
func mulRowsKernel(c, a, b *Matrix, lo, hi int, relu, avx bool) {
	mulRows(c, a, b, lo, hi, relu)
}
