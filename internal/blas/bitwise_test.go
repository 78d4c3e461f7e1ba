package blas

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// sameBits reports whether x and y have identical bits, counting any
// two NaNs as equal: Go leaves the sign and payload of a NaN result
// unspecified, and the compiler orders the operands of commutative
// operations freely (differently from one unrolled lane to the next),
// so NaN bits are not a property of either path.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// bitwiseVec draws a vector mixing ordinary values with explicit and
// signed zeros, ±1 and, when special is set, ±Inf and NaN.
func bitwiseVec(rng *xrand.RNG, n int, special bool) []float32 {
	pool := []float32{0, float32(math.Copysign(0, -1)), 1, -1}
	if special {
		pool = append(pool, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
	}
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = pool[rng.Intn(len(pool))]
		} else {
			v[i] = rng.Float32()*4 - 2
		}
	}
	return v
}

// TestBlasBitwisePortable checks that Axpy, Add and Scal (the AVX
// bodies where the CPU has them) are bitwise equal to their portable
// loops, for lengths around the 8-lane block and the four-block
// unroll, scalars that are zero, signed zero, ±1, non-finite or
// ordinary, and vectors holding the same. Without AVX it compares the
// portable loops with themselves.
func TestBlasBitwisePortable(t *testing.T) {
	t.Logf("AVX kernels in use: %v", useAVX)
	var lengths []int
	for n := 0; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 63, 64, 65, 127, 128, 129)
	scalars := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.37, -2.5,
		float32(math.Inf(1)), float32(math.NaN())}
	rng := xrand.New(16)
	check := func(op string, n int, got, want []float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d: element %d = %v (bits %#x), portable %v (bits %#x)",
					op, n, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	clone := func(v []float32) []float32 { return append([]float32(nil), v...) }
	for _, special := range []bool{false, true} {
		for _, n := range lengths {
			x := bitwiseVec(rng, n, special)
			y := bitwiseVec(rng, n, special)

			got, want := clone(y), clone(y)
			Add(x, got)
			addPortable(x, want)
			check("Add", n, got, want)

			for _, a := range scalars {
				got, want = clone(y), clone(y)
				Axpy(a, x, got)
				if a != 0 {
					axpyPortable(a, x, want)
				}
				check("Axpy", n, got, want)

				got, want = clone(x), clone(x)
				Scal(a, got)
				scalPortable(a, want)
				check("Scal", n, got, want)
			}
		}
	}
}

// TestBlasZeroAlloc pins the update stage's kernels as allocation-free.
func TestBlasZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	x := randVec(rng, 45)
	y := randVec(rng, 45)
	if allocs := testing.AllocsPerRun(20, func() {
		Add(x, y)
		Axpy(0.5, x, y)
		Scal(0.5, y)
	}); allocs != 0 {
		t.Fatalf("blas kernels allocate %v times per call, want 0", allocs)
	}
}
