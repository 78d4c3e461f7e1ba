//go:build !amd64

package dense

// useAVX is false off amd64: MulTo always runs the portable mulRows.
const useAVX = false

// mulRowsKernel computes output rows [lo, hi) of c = a·b, overwriting
// them, with the portable kernel.
//
//cbm:hotpath
func mulRowsKernel(c, a, b *Matrix, lo, hi int) {
	mulRows(c, a, b, lo, hi)
}
