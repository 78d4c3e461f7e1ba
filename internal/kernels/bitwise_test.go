package kernels

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/blas"
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
		spmmRowPortable(c, s, b, left, right, nil, i, 0)
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
// point may allocate, with or without diagonals, at widths with and
// without a tail.
func TestSpMMZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	s := randomCSR(rng, 200, 200, 0.05, false)
	d := bitwiseDiag(rng, 200)
	for _, n := range []int{32, 33, 37} {
		b := randomDense(rng, 200, n)
		c := dense.New(200, n)
		if allocs := testing.AllocsPerRun(20, func() { SpMMTo(c, s, b, 1) }); allocs != 0 {
			t.Fatalf("n=%d: SpMMTo allocates %v times per call, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { SpMMDiagTo(c, s, b, d, d, 1, obs.Global) }); allocs != 0 {
			t.Fatalf("n=%d: SpMMDiagTo allocates %v times per call, want 0", n, allocs)
		}
	}
}

// rangeCSR builds a rows×cols CSR with sorted distinct columns: the
// rows empty(i) selects hold no entries, every other row 1 to maxNNZ.
func rangeCSR(rng *xrand.RNG, rows, cols, maxNNZ int, empty func(i int) bool, val func() float32) *sparse.CSR {
	s := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		if !empty(i) {
			js := rng.Perm(cols)[:1+rng.Intn(maxNNZ)]
			sort.Ints(js)
			for _, j := range js {
				s.ColIdx = append(s.ColIdx, int32(j))
				s.Vals = append(s.Vals, val())
			}
		}
		s.RowPtr[i+1] = int32(len(s.ColIdx))
	}
	return s
}

// TestSpMMRowsBitwisePortable checks the row-range kernel itself
// against spmmRowPortable: a range overwrites exactly its own rows,
// bitwise equal to the portable loop, and leaves every other row's bits
// alone. Ranges cover lo == hi (at the start, inside and at the end), a
// single row, the last row, a run of empty rows and the whole matrix;
// operands cover every value family of the SpMM property test, every
// nil/non-nil diagonal pair and widths around the strip blocking.
func TestSpMMRowsBitwisePortable(t *testing.T) {
	const rows, inner, maxNNZ = 19, 23, 7
	empty := func(i int) bool { return (i >= 4 && i <= 6) || i == 12 }
	ranges := [][2]int{{0, 0}, {9, 9}, {rows, rows}, {0, 1}, {8, 9}, {rows - 1, rows}, {4, 7}, {3, 14}, {0, rows}}
	const sentinel = float32(-7.25)
	rng := xrand.New(18)
	for _, tc := range spmmBitwiseCases {
		for _, n := range []int{1, 7, 8, 9, 16, 24, 31, 32, 33, 40} {
			s := rangeCSR(rng, rows, inner, maxNNZ, empty, func() float32 { return tc.val(rng) })
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
				for _, r := range ranges {
					c := dense.New(rows, n)
					for i := range c.Data {
						c.Data[i] = sentinel
					}
					spmmRows(c, s, b, d.left, d.right, nil, nil, r[0], r[1])
					for i := 0; i < rows; i++ {
						for j, v := range c.Row(i) {
							inRange := i >= r[0] && i < r[1]
							if inRange && !sameBits(v, want.At(i, j)) ||
								!inRange && math.Float32bits(v) != math.Float32bits(sentinel) {
								t.Fatalf("%s %s n=%d rows [%d,%d): c[%d,%d] = %v (bits %#x), portable %v, in range %v",
									tc.name, d.name, n, r[0], r[1], i, j, v, math.Float32bits(v), want.At(i, j), inRange)
							}
						}
					}
				}
			}
		}
	}
}

// TestSpMMAVXBitwiseNaNOrder pins the operand order of the AVX strip
// kernel's accumulate. sameBits counts any two NaNs as equal, so the
// tests above cannot see it: each output element here meets two NaN B
// entries with distinct payloads. VADDPS returns its first source, the
// accumulator, when both operands are NaN, so the output must carry
// the payload of the row's first nonzero in stored order. Widths 8, 16
// and 32 run the single, pair and quad strip blocks.
func TestSpMMAVXBitwiseNaNOrder(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernel on this CPU")
	}
	// Row 0 meets B rows 0 then 1, row 1 meets B rows 2 then 3; every
	// B element is a quiet NaN whose payload names its row and column.
	s := &sparse.CSR{Rows: 2, Cols: 4, RowPtr: []int32{0, 2, 4},
		ColIdx: []int32{0, 1, 2, 3}, Vals: []float32{1, 1, 1, 1}}
	payload := func(r, j int) uint32 { return 0x7fc00000 | uint32(r)<<12 | uint32(j+1) }
	for _, n := range []int{8, 16, 32} {
		b := dense.New(4, n)
		for r := 0; r < 4; r++ {
			for j := 0; j < n; j++ {
				b.Set(r, j, math.Float32frombits(payload(r, j)))
			}
		}
		c := dense.New(2, n)
		SpMMTo(c, s, b, 1)
		for i := 0; i < 2; i++ {
			for j := 0; j < n; j++ {
				got, want := math.Float32bits(c.At(i, j)), payload(2*i, j)
				if got != want {
					t.Fatalf("n=%d c[%d,%d] bits %#x, want %#x (first nonzero's NaN); %#x is the second's",
						n, i, j, got, want, payload(2*i+1, j))
				}
			}
		}
	}
}

// treeValue draws a diagonal entry for the tree tests: mostly ordinary
// values, plus ±0, ±1, ±Inf and NaNs with random sign and payload, so a
// kernel that swaps the operands of an add or a multiply shows up in
// the NaN it propagates.
func treeValue(rng *xrand.RNG) float32 {
	switch rng.Intn(16) {
	case 0:
		return []float32{0, negZero}[rng.Intn(2)]
	case 1:
		return []float32{1, -1}[rng.Intn(2)]
	case 2:
		return []float32{posInf, negInf}[rng.Intn(2)]
	case 3:
		return randomNaN(rng)
	default:
		return rng.Float32()*4 - 2
	}
}

// randomNaN returns a quiet NaN with a random sign and payload.
func randomNaN(rng *xrand.RNG) float32 {
	return math.Float32frombits(uint32(rng.Uint64())&0x803fffff | 0x7fc00000)
}

// bitwiseTree builds a random compression tree over n rows whose first
// chain positions form one path of depth chain; every other position
// hangs off the virtual root or off a random earlier position. A random
// permutation maps positions to row ids, so parents sit both above and
// below their children in c. It returns the parent pointers, every row
// branch by branch in pre-order (one branch per virtual-root child) and
// the branch offsets into that order.
func bitwiseTree(rng *xrand.RNG, n, chain int) (parent, order, branchOff []int32) {
	id := rng.Perm(n)
	parent = make([]int32, n)
	root := make([]int, n) // branch index of every position
	var branches [][]int32
	for pos := 0; pos < n; pos++ {
		pp := -1
		switch {
		case pos < chain:
			pp = pos - 1
		case rng.Intn(5) != 0:
			pp = rng.Intn(pos)
		}
		if pp < 0 {
			parent[id[pos]] = -1
			root[pos] = len(branches)
			branches = append(branches, nil)
		} else {
			parent[id[pos]] = int32(id[pp])
			root[pos] = root[pp]
		}
		// Positions grow, so every parent is listed before its children.
		branches[root[pos]] = append(branches[root[pos]], int32(id[pos]))
	}
	branchOff = []int32{0}
	for _, br := range branches {
		order = append(order, br...)
		branchOff = append(branchOff, int32(len(order)))
	}
	return parent, order, branchOff
}

// portableTree is the reference for SpMMTreeTo: the delta product row
// by row (spmmRowPortable without a tree), then the Eq. 6 update in
// order with the blas kernels, the former two-stage pipeline.
func portableTree(s *sparse.CSR, b *dense.Matrix, left []float32, order, parent []int32) *dense.Matrix {
	c := portableSpMMDiag(s, b, left, nil)
	for _, x := range order {
		p := parent[x]
		if p < 0 {
			continue
		}
		if prow, row := c.Row(int(p)), c.Row(int(x)); left == nil {
			blas.Add(prow, row)
		} else {
			blas.Axpy(left[x]/left[p], prow, row)
		}
	}
	return c
}

// TestSpMMTreeBitwisePortable checks the one-pass CBM product against
// the two-stage reference (delta SpMM, then the update in pre-order)
// for A/AD (no diagonal) and DAD rows: a chain of depth 70 plus a
// random forest, so ranges mix virtual-root rows, deep dependencies and
// parents stored on either side of their children, with ±0, ±1, ±Inf
// and NaN payloads in the diagonal and NaN payloads in the delta
// values. Bits are compared exactly, NaNs included: each element meets
// at most one NaN before the epilogue, whose operand order is the one
// of the blas kernels the reference calls. It runs SpMMTreeTo at 1, 2
// and 4 threads and the row-range kernel on sub-ranges of the order,
// which must leave every row outside the range alone.
func TestSpMMTreeBitwisePortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	const n, chain, maxNNZ = 150, 70, 6
	rng := xrand.New(6)
	parent, order, branchOff := bitwiseTree(rng, n, chain)
	diag := make([]float32, n)
	for i := range diag {
		diag[i] = treeValue(rng)
	}
	const sentinel = float32(-7.25)
	for _, width := range []int{1, 7, 8, 9, 16, 19, 24, 31, 32, 33, 40} {
		b := dense.New(n, width)
		rng.FillUniform(b.Data)
		for _, kind := range []struct {
			name string
			left []float32
			val  func(k int) float32
		}{
			// A NaN delta value only as a row's first nonzero, so the
			// delta sum meets one NaN; DAD's NaNs come from its diagonal.
			{"A/AD", nil, func(k int) float32 {
				if k == 0 && rng.Intn(3) == 0 {
					return randomNaN(rng)
				}
				return []float32{1, -1, 0, negZero, rng.Float32()}[rng.Intn(5)]
			}},
			{"DAD", diag, func(int) float32 { return rng.Float32()*2 - 1 }},
		} {
			s := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
			for i := 0; i < n; i++ {
				js := rng.Perm(n)[:rng.Intn(maxNNZ+1)]
				sort.Ints(js)
				for k, j := range js {
					s.ColIdx = append(s.ColIdx, int32(j))
					s.Vals = append(s.Vals, kind.val(k))
				}
				s.RowPtr[i+1] = int32(len(s.ColIdx))
			}
			want := portableTree(s, b, kind.left, order, parent)
			same := func(entry string, got *dense.Matrix, in func(i int) bool) {
				t.Helper()
				for i, v := range got.Data {
					w := want.Data[i]
					if !in(i / width) {
						w = sentinel
					}
					if math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%s %s n=%d: row %d col %d = %v (bits %#x), want %v (bits %#x)",
							entry, kind.name, width, i/width, i%width, v, math.Float32bits(v), w, math.Float32bits(w))
					}
				}
			}
			for _, threads := range []int{1, 2, 4} {
				got := dense.New(n, width)
				for i := range got.Data {
					got.Data[i] = nan32
				}
				SpMMTreeTo(got, s, b, kind.left, order, parent, branchOff, threads, obs.Global)
				same(fmt.Sprintf("SpMMTreeTo threads=%d", threads), got, func(int) bool { return true })
			}
			// Ranges of whole branches, the blocks SpMMTreeTo hands out;
			// the first is the chain.
			for _, r := range [][2]int{{0, 0}, {0, int(branchOff[1])}, {int(branchOff[1]), int(branchOff[5])}, {0, n}} {
				got := dense.New(n, width)
				for i := range got.Data {
					got.Data[i] = sentinel
				}
				spmmRows(got, s, b, kind.left, nil, order, parent, r[0], r[1])
				in := make([]bool, n)
				for _, x := range order[r[0]:r[1]] {
					in[x] = true
				}
				same(fmt.Sprintf("spmmRows [%d,%d)", r[0], r[1]), got, func(i int) bool { return in[i] })
			}
		}
	}
}

// TestSpMMTreeAVXBitwiseNaNOrder pins the operand roles of the tree
// epilogue through NaN payloads: row 1 hangs off row 0, and row 0's and
// row 1's delta products are NaNs with distinct payloads. Without a
// diagonal the row must carry its own payload (c_1 + c_0, c_1 first).
// With one, the quotient is finite and (q·c_0) + c_1 must carry row
// 0's payload (the product first); a zero quotient must skip the add,
// leaving row 1 as its own scaled product. Widths 8, 16 and 32 run the
// single, pair and quad strip blocks, 19 a tail as well.
func TestSpMMTreeAVXBitwiseNaNOrder(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernel on this CPU")
	}
	s := &sparse.CSR{Rows: 2, Cols: 2, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{0, 1}, Vals: []float32{1, 1}}
	payload := func(r, j int) uint32 { return 0x7fc00000 | uint32(r+1)<<12 | uint32(j+1) }
	order, parent, branchOff := []int32{0, 1}, []int32{-1, 0}, []int32{0, 2}
	for _, n := range []int{8, 16, 19, 32} {
		b := dense.New(2, n)
		for r := 0; r < 2; r++ {
			for j := 0; j < n; j++ {
				b.Set(r, j, math.Float32frombits(payload(r, j)))
			}
		}
		full := n &^ 7
		for _, tc := range []struct {
			name string
			left []float32
			want func(j int) uint32
		}{
			{"add", nil, func(j int) uint32 { return payload(1, j) }},
			{"axpy", []float32{2, 1}, func(j int) uint32 { return payload(0, j) }},
			{"zero-quotient", []float32{2, 0}, func(j int) uint32 { return payload(1, j) }},
		} {
			c := dense.New(2, n)
			SpMMTreeTo(c, s, b, tc.left, order, parent, branchOff, 1, obs.Global)
			for j := 0; j < full; j++ {
				if got := math.Float32bits(c.At(1, j)); got != tc.want(j) {
					t.Fatalf("%s n=%d c[1,%d] bits %#x, want %#x", tc.name, n, j, got, tc.want(j))
				}
			}
		}
	}
}
