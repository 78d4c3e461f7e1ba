package kernels

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// sameBits reports whether x and y have identical bits, counting any
// two NaNs as equal: Go leaves the sign and payload of a NaN result
// unspecified, and the compiler orders the operands of commutative
// operations freely (differently from one unrolled lane to the next),
// so NaN bits are not a property of either kernel.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// firstDiff returns the first index whose elements differ in the
// sameBits sense, or -1.
func firstDiff(x, y []float32) int {
	for i := range x {
		if !sameBits(x[i], y[i]) {
			return i
		}
	}
	return -1
}

// bitwiseCSR builds a rows×cols CSR with sorted distinct columns and up
// to maxNNZ stored entries per row (some rows empty), keeping explicit
// zero values, which a COO conversion might drop.
func bitwiseCSR(rng *xrand.RNG, rows, cols, maxNNZ int, val func() float32) *sparse.CSR {
	s := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:rng.Intn(maxNNZ+1)] {
			s.ColIdx = append(s.ColIdx, int32(j))
		}
		row := s.ColIdx[s.RowPtr[i]:]
		for a := 1; a < len(row); a++ {
			for b := a; b > 0 && row[b] < row[b-1]; b-- {
				row[b], row[b-1] = row[b-1], row[b]
			}
		}
		for range row {
			s.Vals = append(s.Vals, val())
		}
		s.RowPtr[i+1] = int32(len(s.ColIdx))
	}
	return s
}

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	negInf  = float32(math.Inf(-1))
	nan32   = float32(math.NaN())
)

// spmmBitwiseCase is one operand family of the property test: how the
// stored values are drawn, and an optional pass over B and the CSR.
type spmmBitwiseCase struct {
	name string
	val  func(rng *xrand.RNG) float32
	fill func(rng *xrand.RNG, s *sparse.CSR, b *dense.Matrix)
}

var spmmBitwiseCases = []spmmBitwiseCase{
	{"uniform", func(rng *xrand.RNG) float32 { return rng.Float32()*2 - 1 }, nil},
	{"ones", func(rng *xrand.RNG) float32 { return 1 }, nil},
	{"signed-ones", func(rng *xrand.RNG) float32 { return []float32{1, -1}[rng.Intn(2)] }, nil},
	{"explicit-zeros", func(rng *xrand.RNG) float32 {
		return []float32{0, negZero, 1, -1, rng.Float32()}[rng.Intn(5)]
	}, nil},
	{"nan-vals", func(rng *xrand.RNG) float32 {
		if rng.Intn(6) == 0 {
			return nan32
		}
		return rng.Float32()
	}, nil},
	{"nonfinite-b", func(rng *xrand.RNG) float32 { return rng.Float32()*2 - 1 },
		func(rng *xrand.RNG, s *sparse.CSR, b *dense.Matrix) {
			special := []float32{posInf, negInf, nan32, negZero}
			for i := range b.Data {
				if rng.Intn(5) == 0 {
					b.Data[i] = special[rng.Intn(len(special))]
				}
			}
		}},
	// Even columns of B are wholly non-finite and every stored value
	// pointing at one is ±0, so the zero skip must keep them out.
	{"nonfinite-b-under-zero", func(rng *xrand.RNG) float32 { return rng.Float32() + 0.5 },
		func(rng *xrand.RNG, s *sparse.CSR, b *dense.Matrix) {
			special := []float32{posInf, negInf, nan32}
			for k := 0; k < b.Rows; k += 2 {
				for j := range b.Row(k) {
					b.Set(k, j, special[rng.Intn(3)])
				}
			}
			for k, col := range s.ColIdx {
				if col%2 == 0 {
					s.Vals[k] = []float32{0, negZero}[rng.Intn(2)]
				}
			}
		}},
}

// bitwiseDiag draws a diagonal with ordinary scales plus zeros, ±1 and
// signed zeros, so right[col]·vals[k] hits the mask and the v == 1
// branch, and left[i] can flip or zero a row.
func bitwiseDiag(rng *xrand.RNG, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		switch rng.Intn(8) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = negZero
		case 2:
			d[i] = 1
		case 3:
			d[i] = -1
		default:
			d[i] = 0.25 + rng.Float32()
		}
	}
	return d
}

// portableSpMMDiag is the reference: spmmRowPortable over every row.
func portableSpMMDiag(s *sparse.CSR, b *dense.Matrix, left, right []float32) *dense.Matrix {
	c := dense.New(s.Rows, b.Cols)
	for i := 0; i < s.Rows; i++ {
		spmmRowPortable(c, s, b, left, right, i, 0)
	}
	return c
}

// TestSpMMBitwisePortable checks that SpMMTo and SpMMDiagTo (the AVX
// row kernel where the CPU has it) are bitwise equal to the portable
// row loop across strip widths, explicit and signed zeros, ±1 values,
// non-finite B, every nil/non-nil diagonal pair and thread counts. c
// starts filled with NaN, so the test also checks that every element
// is overwritten. Without AVX it compares the portable loop with
// itself.
func TestSpMMBitwisePortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	// Strip edges of the 4/2/1 blocking, plus widths with a tail.
	widths := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 40, 47, 48, 56, 57, 64, 65, 128, 129}
	rng := xrand.New(16)
	const rows, inner, maxNNZ = 23, 29, 9
	for _, tc := range spmmBitwiseCases {
		for _, n := range widths {
			s := bitwiseCSR(rng, rows, inner, maxNNZ, func() float32 { return tc.val(rng) })
			b := dense.New(inner, n)
			rng.FillUniform(b.Data)
			if tc.fill != nil {
				tc.fill(rng, s, b)
			}
			diags := []struct {
				name        string
				left, right []float32
			}{
				{"nil/nil", nil, nil},
				{"nil/right", nil, bitwiseDiag(rng, inner)},
				{"left/nil", bitwiseDiag(rng, rows), nil},
				{"left/right", bitwiseDiag(rng, rows), bitwiseDiag(rng, inner)},
			}
			for _, d := range diags {
				want := portableSpMMDiag(s, b, d.left, d.right)
				for _, threads := range []int{1, 2, 4} {
					check := func(entry string, run func(c *dense.Matrix)) {
						t.Helper()
						c := dense.New(rows, n)
						for i := range c.Data {
							c.Data[i] = nan32
						}
						run(c)
						if i := firstDiff(c.Data, want.Data); i >= 0 {
							t.Fatalf("%s %s %s n=%d threads=%d: element %d = %v (bits %#x), portable %v (bits %#x)",
								entry, tc.name, d.name, n, threads, i, c.Data[i], math.Float32bits(c.Data[i]),
								want.Data[i], math.Float32bits(want.Data[i]))
						}
						if tc.name == "nonfinite-b-under-zero" {
							for i, v := range c.Data {
								if v != v || math.IsInf(float64(v), 0) {
									t.Fatalf("%s %s n=%d threads=%d: element %d = %v leaked through a zero value",
										entry, d.name, n, threads, i, v)
								}
							}
						}
					}
					check("SpMMDiagTo", func(c *dense.Matrix) {
						SpMMDiagTo(c, s, b, d.left, d.right, threads, obs.Global)
					})
					if d.left == nil && d.right == nil {
						check("SpMMTo", func(c *dense.Matrix) { SpMMTo(c, s, b, threads) })
					}
				}
			}
		}
	}
}

// TestSpMMZeroAlloc pins the 1-thread serving path: neither CSR entry
// point may allocate, with or without diagonals.
func TestSpMMZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	s := randomCSR(rng, 200, 200, 0.05, false)
	b := randomDense(rng, 200, 37)
	c := dense.New(200, 37)
	d := bitwiseDiag(rng, 200)
	if allocs := testing.AllocsPerRun(20, func() { SpMMTo(c, s, b, 1) }); allocs != 0 {
		t.Fatalf("SpMMTo allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { SpMMDiagTo(c, s, b, d, d, 1, obs.Global) }); allocs != 0 {
		t.Fatalf("SpMMDiagTo allocates %v times per call, want 0", allocs)
	}
}
