package dense

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// portableMul computes a·b with the portable row kernel, the reference
// the dispatched kernel must match bit for bit.
func portableMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	mulRows(c, a, b, 0, a.Rows)
	return c
}

// firstBitDiff returns the first index whose bits differ, or -1.
func firstBitDiff(x, y *Matrix) int {
	for i, v := range x.Data {
		if math.Float32bits(v) != math.Float32bits(y.Data[i]) {
			return i
		}
	}
	return -1
}

// gemmCase builds one operand pair of the property test.
type gemmCase struct {
	name string
	fill func(rng *xrand.RNG, a, b *Matrix)
}

var gemmCases = []gemmCase{
	{"dense", func(rng *xrand.RNG, a, b *Matrix) {}},
	{"relu", func(rng *xrand.RNG, a, b *Matrix) { a.ReLU() }},
	{"zero-rows", func(rng *xrand.RNG, a, b *Matrix) {
		for i := 0; i < a.Rows; i += 2 {
			clear(a.Row(i))
		}
	}},
	{"neg-zero", func(rng *xrand.RNG, a, b *Matrix) {
		for i := range a.Data {
			if rng.Intn(3) == 0 {
				a.Data[i] = float32(math.Copysign(0, -1))
			}
		}
	}},
	{"nan-in-a", func(rng *xrand.RNG, a, b *Matrix) {
		for i := range a.Data {
			if rng.Intn(7) == 0 {
				a.Data[i] = float32(math.NaN())
			}
		}
	}},
	// Column k of a is ±0 in every row, so the zero skip must keep the
	// non-finite row k of b out of the result.
	{"nonfinite-b-under-zero", func(rng *xrand.RNG, a, b *Matrix) {
		special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		zero := []float32{0, float32(math.Copysign(0, -1))}
		for k := 0; k < a.Cols; k += 2 {
			for i := 0; i < a.Rows; i++ {
				a.Set(i, k, zero[rng.Intn(2)])
			}
			for j := range b.Row(k) {
				b.Set(k, j, special[rng.Intn(3)])
			}
		}
	}},
}

// TestMulToBitwisePortable checks that MulTo's dispatched kernel (the
// AVX kernel where the CPU has it) is bitwise equal to the portable
// mulRows across strip widths, inner sizes, zero skipping, signed
// zeros, non-finite values and thread counts. c starts filled with NaN, so the
// test also checks that MulTo overwrites every element. Without AVX it
// compares the portable kernel against itself.
func TestMulToBitwisePortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33}
	// 0 exercises the empty-K overwrite; 2708 a transposed training
	// product (K = n of cora).
	inners := []int{0, 1, 3, 32, 257, 2708}
	rng := xrand.New(14)
	for _, tc := range gemmCases {
		for _, k := range inners {
			for _, n := range widths {
				rows := 7
				if k > 256 {
					rows = 4
				}
				a := randMatrix(rng, rows, k)
				b := randMatrix(rng, k, n)
				tc.fill(rng, a, b)
				want := portableMul(a, b)
				for _, threads := range []int{1, 2, 4} {
					c := New(rows, n)
					for i := range c.Data {
						c.Data[i] = float32(math.NaN())
					}
					MulTo(c, a, b, threads)
					if i := firstBitDiff(c, want); i >= 0 {
						t.Fatalf("%s K=%d n=%d threads=%d: element %d = %v (bits %#x), portable %v (bits %#x)",
							tc.name, k, n, threads, i, c.Data[i], math.Float32bits(c.Data[i]),
							want.Data[i], math.Float32bits(want.Data[i]))
					}
					if tc.name == "nonfinite-b-under-zero" {
						for i, v := range c.Data {
							if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
								t.Fatalf("K=%d n=%d threads=%d: element %d = %v leaked through a zero in a", k, n, threads, i, v)
							}
						}
					}
				}
			}
		}
	}
}

func TestMulToZeroAlloc(t *testing.T) {
	rng := xrand.New(5)
	a := randMatrix(rng, 64, 259)
	b := randMatrix(rng, 259, 37)
	c := New(64, 37)
	if allocs := testing.AllocsPerRun(20, func() { MulTo(c, a, b, 1) }); allocs != 0 {
		t.Fatalf("MulTo allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkMulTo times the dispatched and the portable kernel on the
// two GCN2 layer shapes of collab (46,559 rows; 32 hidden, 16 classes),
// the second on ReLU'd input.
func BenchmarkMulTo(b *testing.B) {
	rng := xrand.New(1)
	const rows = 46559
	for _, sh := range []struct {
		name string
		k, n int
		relu bool
	}{{"layer0-32x32", 32, 32, false}, {"layer1-32x16-relu", 32, 16, true}} {
		a := randMatrix(rng, rows, sh.k)
		if sh.relu {
			a.ReLU()
		}
		w := randMatrix(rng, sh.k, sh.n)
		c := New(rows, sh.n)
		b.Run(fmt.Sprintf("%s/dispatched", sh.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulTo(c, a, w, 1)
			}
		})
		b.Run(fmt.Sprintf("%s/portable", sh.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulRows(c, a, w, 0, rows)
			}
		})
	}
}
