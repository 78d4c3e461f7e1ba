// Package dense implements a row-major single-precision dense matrix
// with the operations the GCN pipeline needs: row-parallel GEMM
// (standing in for the dense-dense products PyTorch performs in the
// paper's pipeline), element-wise activation, and error metrics used by
// the correctness harness.
//
// The GEMM row kernel is chosen once at init from the CPU. On amd64
// with AVX it is a register-blocked micro-kernel in assembly: it keeps
// the 8-column strips of two output rows in YMM registers while it
// multiplies and adds, as separate instructions (no FMA), in k order.
// It has no zero mask: MulTo runs it only when every entry of b is
// finite, and then adding the ±0 product of a zero a[i,k] leaves the
// sum's bits as skipping it would. Each lane therefore rounds exactly
// like the portable kernel's crow[j] += a[i,k]*b[k,j], so the two are
// bitwise equal. Everywhere else, and for a b with an Inf or NaN, the
// portable i-k-j axpy loop runs. MulReLUTo folds ReLU into the load of
// a (one VMAXPS against +0 per broadcast), so a GCN's hidden
// activation costs no pass of its own.
package dense

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// Matrix is a dense, row-major float32 matrix. Row i occupies
// Data[i*Cols : (i+1)*Cols].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("dense: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies o's contents into m (shapes must match) and returns
// m — Clone for callers that already own the destination, e.g. arena
// borrowers.
//
//cbm:hotpath
func (m *Matrix) CopyFrom(o *Matrix) *Matrix {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("dense: CopyFrom shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	copy(m.Data, o.Data)
	return m
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether two matrices have the same shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MaxAbsDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// MaxRelDiff returns max_i |a_i-b_i| / max(|a_i|, |b_i|, floor). It is
// the relative-tolerance metric the paper uses (1e-5) to validate CBM
// kernels against the CSR baseline.
func MaxRelDiff(a, b *Matrix, floor float64) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MaxRelDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if floor <= 0 {
		floor = 1
	}
	var max float64
	for i := range a.Data {
		av, bv := float64(a.Data[i]), float64(b.Data[i])
		den := math.Max(math.Max(math.Abs(av), math.Abs(bv)), floor)
		d := math.Abs(av-bv) / den
		if d > max {
			max = d
		}
	}
	return max
}

// Mul computes C = A·B sequentially and returns C.
func Mul(a, b *Matrix) *Matrix {
	return MulParallel(a, b, 1)
}

// MulParallel computes C = A·B using the given number of threads
// (threads < 1 selects the default). Output rows are split over the
// threads; each row streams B and C rows contiguously, the
// cache-friendly layout for row-major data.
func MulParallel(a, b *Matrix, threads int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	MulTo(c, a, b, threads)
	return c
}

// MulTo computes c = a·b into a pre-allocated c (overwritten). The
// sequential case runs inline without materializing the loop-body
// closure, so single-threaded callers (the zero-allocation serving
// path) allocate nothing.
//
//cbm:hotpath
func MulTo(c, a, b *Matrix, threads int) {
	mulTo(c, a, b, threads, false)
}

// MulReLUTo computes c = max(a, 0)·b into a pre-allocated c
// (overwritten), bitwise equal to a.Clone().ReLU() followed by MulTo,
// without the clone or the pass: the activation is applied to each
// a[i,k] as the kernel loads it, and a itself is left unchanged.
//
//cbm:hotpath
func MulReLUTo(c, a, b *Matrix, threads int) {
	mulTo(c, a, b, threads, true)
}

// mulTo is MulTo (relu unset) and MulReLUTo (relu set). It decides
// once per call, before the row split, whether the AVX kernel may run:
// its missing zero mask needs every entry of b to be finite.
//
//cbm:hotpath
func mulTo(c, a, b *Matrix, threads int, relu bool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulTo shape mismatch: c %dx%d, a %dx%d, b %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	avx := useAVX && allFinite(b.Data)
	if parallel.Sequential(threads, a.Rows) {
		mulRowsKernel(c, a, b, 0, a.Rows, relu, avx)
		return
	}
	parallel.ForRange(a.Rows, threads, func(lo, hi int) {
		mulRowsKernel(c, a, b, lo, hi, relu, avx)
	})
}

// allFinite reports whether x holds no Inf and no NaN.
//
//cbm:hotpath
func allFinite(x []float32) bool {
	for _, v := range x {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// mulRows computes output rows [lo, hi) of c = a·b (of c = max(a, 0)·b
// when relu is set), overwriting them. It is the portable kernel and
// the reference the SIMD kernel must match bit for bit.
//
//cbm:hotpath
func mulRows(c, a, b *Matrix, lo, hi int, relu bool) {
	for i := lo; i < hi; i++ {
		mulRow(c.Row(i), a.Row(i), b, 0, relu)
	}
}

// mulRow overwrites crow with arow·b[:, from:], one axpy per term in k
// order. It skips the terms whose a[k] is ±0 and, when relu is set,
// the negative ones too, which ReLU would have made +0; a NaN a[k] is
// never skipped, as ReLU keeps it.
//
//cbm:hotpath
func mulRow(crow, arow []float32, b *Matrix, from int, relu bool) {
	clear(crow)
	for k, av := range arow {
		if av == 0 || relu && av < 0 {
			continue
		}
		blas.Axpy(av, b.Row(k)[from:], crow)
	}
}

// AddBiasRow adds the bias vector to every row of m in place.
func (m *Matrix) AddBiasRow(bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("dense: bias length mismatch: len(bias)=%d, want %d cols", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		blas.Add(bias, m.Row(i))
	}
}

// ReLU applies max(0, x) element-wise in place and returns m. It is
// branch-free: x < 0 holds exactly when x's bits, read as an unsigned
// integer, lie in (0x80000000, 0xff800000] (the negative numbers down
// to -Inf; -0 and the negative NaNs lie outside), and an integer
// borrow turns that range test into a mask that clears those bits to
// +0's. So -0, +Inf and every NaN, whatever its sign, are kept: the
// same bits as the `if v < 0 { v = 0 }` loop, without its mispredicted
// branches on mixed signs.
func (m *Matrix) ReLU() *Matrix {
	d := m.Data
	for i, v := range d {
		b := math.Float32bits(v)
		neg := uint32(int64(uint64(b-0x80000001)-0x7f800000) >> 63)
		d[i] = math.Float32frombits(b &^ neg)
	}
	return m
}

// Scale multiplies every element by a in place and returns m.
func (m *Matrix) Scale(a float32) *Matrix {
	blas.Scal(a, m.Data)
	return m
}

// Add accumulates o into m element-wise in place and returns m.
func (m *Matrix) Add(o *Matrix) *Matrix {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("dense: Add shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	blas.Add(o.Data, m.Data)
	return m
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	return m.TransposeTo(New(m.Cols, m.Rows))
}

// TransposeTo writes the transpose of m into t (overwritten) and
// returns t.
func (m *Matrix) TransposeTo(t *Matrix) *Matrix {
	if t.Rows != m.Cols || t.Cols != m.Rows {
		panic(fmt.Sprintf("dense: TransposeTo shape mismatch: %dx%d into %dx%d", m.Rows, m.Cols, t.Rows, t.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// ScaleRows multiplies row i of m by d[i] in place (computes diag(d)·M).
func (m *Matrix) ScaleRows(d []float32) *Matrix {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("dense: ScaleRows length mismatch: len(d)=%d, want %d rows", len(d), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		blas.Scal(d[i], m.Row(i))
	}
	return m
}

// ScaleCols multiplies column j of m by d[j] in place (computes M·diag(d)).
func (m *Matrix) ScaleCols(d []float32) *Matrix {
	if len(d) != m.Cols {
		panic(fmt.Sprintf("dense: ScaleCols length mismatch: len(d)=%d, want %d cols", len(d), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= d[j]
		}
	}
	return m
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("dense.Matrix %d×%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("\n%v", m.Row(i))
		}
	}
	return s
}
