//go:build !amd64

package kernels

// treeUpdateAVX exists only on amd64. Its call site is guarded by the
// constant useAVX, so this is never reached.
func treeUpdateAVX(c *float32, rows, parent *int32, diag *float32, nrows, n, strips int) {
	panic("kernels: no AVX kernels off amd64")
}
