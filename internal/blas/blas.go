// Package blas provides the small set of single-precision vector
// kernels the CBM multiplication pipeline is built from. They stand in
// for the Intel MKL routines (axpy and friends) the paper uses.
//
// Axpy, Add and Scal run their full 8-element blocks through
// AVX assembly where the CPU and OS support it (HasAVX, fixed at init)
// and the remainder through the portable Go loops, which are also the
// whole implementation off amd64. The Go compiler does not vectorize,
// so those loops are scalar: they are unrolled by eight, with a
// four-wide step before the tail, only to hoist bounds checks and
// loop overhead. Every element is computed independently by the same
// operations in the same order on either path, each product rounded
// before its add (no FMA), so the results are bitwise identical.
package blas

import "fmt"

// Axpy computes y[i] += a*x[i] for all i. x and y must have equal
// length; it panics otherwise (mirrors the BLAS contract).
//
//cbm:hotpath
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Axpy length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	if a == 0 || len(x) == 0 {
		return
	}
	i := 0
	if n := len(x) &^ 7; useAVX && n > 0 {
		axpyAVX(a, &x[0], &y[0], n/8)
		if n == len(x) {
			return
		}
		i = n
	}
	axpyPortable(a, x[i:], y[i:])
}

// axpyPortable is the portable body of Axpy, for len(x) == len(y).
//
//cbm:hotpath
func axpyPortable(a float32, x, y []float32) {
	i := 0
	// Unrolled main loop; the slice re-slice pins a common bound so the
	// compiler eliminates per-element bounds checks.
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
		ys[4] += a * xs[4]
		ys[5] += a * xs[5]
		ys[6] += a * xs[6]
		ys[7] += a * xs[7]
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
		i += 4
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// Add computes y[i] += x[i] — the a == 1 axpy specialization used by
// the CBM update stage for unscaled (AX) products.
//
//cbm:hotpath
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Add length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	i := 0
	if n := len(x) &^ 7; useAVX && n > 0 {
		addAVX(&x[0], &y[0], n/8)
		if n == len(x) {
			return
		}
		i = n
	}
	addPortable(x[i:], y[i:])
}

// addPortable is the portable body of Add, for len(x) == len(y).
//
//cbm:hotpath
func addPortable(x, y []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += xs[0]
		ys[1] += xs[1]
		ys[2] += xs[2]
		ys[3] += xs[3]
		ys[4] += xs[4]
		ys[5] += xs[5]
		ys[6] += xs[6]
		ys[7] += xs[7]
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += xs[0]
		ys[1] += xs[1]
		ys[2] += xs[2]
		ys[3] += xs[3]
		i += 4
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// Scal computes x[i] *= a.
//
//cbm:hotpath
func Scal(a float32, x []float32) {
	i := 0
	if n := len(x) &^ 7; useAVX && n > 0 {
		scalAVX(a, &x[0], n/8)
		if n == len(x) {
			return
		}
		i = n
	}
	scalPortable(a, x[i:])
}

// scalPortable is the portable body of Scal.
//
//cbm:hotpath
func scalPortable(a float32, x []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		xs[0] *= a
		xs[1] *= a
		xs[2] *= a
		xs[3] *= a
		xs[4] *= a
		xs[5] *= a
		xs[6] *= a
		xs[7] *= a
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		xs[0] *= a
		xs[1] *= a
		xs[2] *= a
		xs[3] *= a
		i += 4
	}
	for ; i < len(x); i++ {
		x[i] *= a
	}
}

// Dot returns the inner product of x and y. Four independent
// accumulators break the floating-point dependency chain.
//
//cbm:hotpath
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Dot length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Fill sets every element of x to v.
//
//cbm:hotpath
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}
