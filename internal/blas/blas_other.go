//go:build !amd64

package blas

// useAVX is false off amd64: every kernel runs its portable loop.
const useAVX = false

// HasAVX reports whether this process runs the AVX kernels; off amd64
// it never does.
func HasAVX() bool { return false }

// The AVX bodies exist only on amd64. Their call sites are guarded by
// the constant useAVX, so these are never reached.

func axpyAVX(a float32, x, y *float32, blocks int) { panic("blas: no AVX kernels off amd64") }

func addAVX(x, y *float32, blocks int) { panic("blas: no AVX kernels off amd64") }

func scalAVX(a float32, x *float32, blocks int) { panic("blas: no AVX kernels off amd64") }
