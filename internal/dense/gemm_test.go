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
	mulRows(c, a, b, 0, a.Rows, false)
	return c
}

// portableReLUMul is the unfused reference for MulReLUTo: ReLU on a
// copy of a, then the portable row kernel.
func portableReLUMul(a, b *Matrix) *Matrix {
	return portableMul(a.Clone().ReLU(), b)
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
	// NaNs of both signs and distinct payloads: where two meet in one
	// sum, the kernel must keep the same one as mulRows' axpy.
	{"nan-payloads", func(rng *xrand.RNG, a, b *Matrix) {
		for i := range a.Data {
			if rng.Intn(5) == 0 {
				bits := 0x7fc00000 | uint32(rng.Intn(1<<22)) | uint32(rng.Intn(2))<<31
				a.Data[i] = math.Float32frombits(bits)
			}
		}
	}},
	{"inf-in-a", func(rng *xrand.RNG, a, b *Matrix) {
		for i := range a.Data {
			if rng.Intn(7) == 0 {
				a.Data[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
	}},
	// Every other row is strictly negative: ReLU zeroes it entirely.
	{"all-negative-rows", func(rng *xrand.RNG, a, b *Matrix) {
		for i := 0; i < a.Rows; i += 2 {
			for j, v := range a.Row(i) {
				a.Set(i, j, -float32(math.Abs(float64(v)))-0.5)
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
// zeros, non-finite values and thread counts. Without AVX it compares
// the portable kernel against itself.
func TestMulToBitwisePortable(t *testing.T) {
	checkGemmBitwise(t, MulTo, portableMul)
}

// TestMulReLUToBitwisePortable checks that MulReLUTo is bitwise equal
// to ReLU on a copy of a followed by the portable mulRows, on the same
// grid as TestMulToBitwisePortable.
func TestMulReLUToBitwisePortable(t *testing.T) {
	checkGemmBitwise(t, MulReLUTo, portableReLUMul)
}

// checkGemmBitwise runs mul over every gemm case, strip width, inner
// size, odd and even row count and thread count, and compares it bit
// for bit with ref. c starts filled with NaN, so it also checks that
// mul overwrites every element, and it checks that a is left as it was.
func checkGemmBitwise(t *testing.T, mul func(c, a, b *Matrix, threads int), ref func(a, b *Matrix) *Matrix) {
	t.Helper()
	t.Logf("AVX kernel in use: %v", useAVX)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33}
	// 0 exercises the empty-K overwrite; 2708 a transposed training
	// product (K = n of cora).
	inners := []int{0, 1, 3, 32, 257, 2708}
	rng := xrand.New(14)
	for _, tc := range gemmCases {
		for _, k := range inners {
			for _, n := range widths {
				// Odd row counts reach the two-row block's remainder.
				rowCounts := []int{6, 7}
				if k > 256 {
					rowCounts = []int{5}
				}
				for _, rows := range rowCounts {
					a := randMatrix(rng, rows, k)
					b := randMatrix(rng, k, n)
					tc.fill(rng, a, b)
					orig := a.Clone()
					want := ref(a, b)
					for _, threads := range []int{1, 2, 4} {
						c := New(rows, n)
						for i := range c.Data {
							c.Data[i] = float32(math.NaN())
						}
						mul(c, a, b, threads)
						if i := firstBitDiff(c, want); i >= 0 {
							t.Fatalf("%s K=%d n=%d rows=%d threads=%d: element %d = %v (bits %#x), portable %v (bits %#x)",
								tc.name, k, n, rows, threads, i, c.Data[i], math.Float32bits(c.Data[i]),
								want.Data[i], math.Float32bits(want.Data[i]))
						}
						if i := firstBitDiff(a, orig); i >= 0 {
							t.Fatalf("%s K=%d n=%d rows=%d threads=%d: a[%d] changed to %v", tc.name, k, n, rows, threads, i, a.Data[i])
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
}

func TestMulToZeroAlloc(t *testing.T) {
	rng := xrand.New(5)
	a := randMatrix(rng, 64, 259)
	b := randMatrix(rng, 259, 37)
	c := New(64, 37)
	for _, f := range []struct {
		name string
		mul  func(c, a, b *Matrix, threads int)
	}{{"MulTo", MulTo}, {"MulReLUTo", MulReLUTo}} {
		if allocs := testing.AllocsPerRun(20, func() { f.mul(c, a, b, 1) }); allocs != 0 {
			t.Fatalf("%s allocates %v times per call, want 0", f.name, allocs)
		}
	}
}

// TestReLUBitwiseBranchyLoop checks the branch-free ReLU against the
// `if v < 0 { v = 0 }` loop it replaced, bit for bit, on signed zeros,
// infinities, subnormals, NaNs of both signs with distinct payloads,
// an all-negative row and random signs.
func TestReLUBitwiseBranchyLoop(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001), // ±smallest subnormal
		math.MaxFloat32, -math.MaxFloat32,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		math.Float32frombits(0xff812345), math.Float32frombits(0x7f800001), // signalling
	}
	rng := xrand.New(22)
	m := New(4, 64)
	for j := range m.Row(0) {
		m.Set(0, j, special[j%len(special)])
		m.Set(1, j, -rng.Float32()-1e-3) // all negative
	}
	for i := 2 * m.Cols; i < len(m.Data); i++ {
		m.Data[i] = rng.Float32()*2 - 1
	}
	want := m.Clone()
	for i, v := range want.Data {
		if v < 0 {
			want.Data[i] = 0
		}
	}
	if i := firstBitDiff(m.ReLU(), want); i >= 0 {
		t.Fatalf("ReLU element %d: bits %#x, loop %#x", i, math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
	}
}

// BenchmarkMulTo times the dispatched and the portable kernel on the
// two GCN2 layer shapes of collab (46,559 rows; 32 hidden, 16 classes),
// the second on ReLU'd input. The reluload case starts from the raw
// pre-activation hidden layer and times MulReLUTo ("fused") against
// the unfused ReLU pass plus MulTo ("relu+mul"); ReLU runs in place,
// so that side first restores the raw input, a copy timed alone as
// "copy".
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
				mulRows(c, a, w, 0, rows, false)
			}
		})
	}
	raw := randMatrix(rng, rows, 32)
	h := New(rows, 32)
	w := randMatrix(rng, 32, 16)
	c := New(rows, 16)
	b.Run("layer1-32x16-reluload/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulReLUTo(c, raw, w, 1)
		}
	})
	b.Run("layer1-32x16-reluload/relu+mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.CopyFrom(raw).ReLU()
			MulTo(c, h, w, 1)
		}
	})
	b.Run("layer1-32x16-reluload/copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.CopyFrom(raw)
		}
	})
}
