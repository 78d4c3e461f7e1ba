// Package sparse implements the standard sparse matrix formats the
// paper compares against — Coordinate list (COO) and Compressed Sparse
// Row (CSR) — with int32 indices and float32 values, matching the
// single-precision Intel MKL CSR configuration used as the paper's
// baseline. It also provides the format conversions, graph-oriented
// transforms (symmetrize, self-loops, transpose) and the byte-exact
// memory-footprint accounting behind the paper's S_CSR column.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dense"
)

// COO is a coordinate-list sparse matrix. Entries may be unsorted and
// may contain duplicates until Canonicalize or ToCSR is called.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float32
}

// NewCOO returns an empty COO matrix of the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: invalid COO shape %d×%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Append adds entry (i, j, v). It panics on out-of-range indices.
func (m *COO) Append(i, j int, v float32) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
	m.RowIdx = append(m.RowIdx, int32(i))
	m.ColIdx = append(m.ColIdx, int32(j))
	m.Vals = append(m.Vals, v)
}

// NNZ returns the number of stored entries (including duplicates).
func (m *COO) NNZ() int { return len(m.Vals) }

// CSR is a compressed-sparse-row matrix. Column indices within each
// row are sorted ascending and unique; that invariant is established by
// every constructor in this package and required by the multiplication
// kernels and the CBM construction.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // length Rows+1
	ColIdx     []int32 // length NNZ
	Vals       []float32
}

// NewCSR returns an empty (all-zero) CSR matrix of the given shape.
func NewCSR(rows, cols int) *CSR {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: invalid CSR shape %d×%d", rows, cols))
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns views of the column indices and values of row i.
func (m *CSR) Row(i int) ([]int32, []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi:hi], m.Vals[lo:hi:hi]
}

// RowCols returns a view of the column indices of row i.
func (m *CSR) RowCols(i int) []int32 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi:hi]
}

// ToCSR converts the COO matrix to canonical CSR form. Duplicate
// entries are summed; column indices end up sorted within each row.
func (m *COO) ToCSR() *CSR {
	n := len(m.Vals)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: nnz %d exceeds int32 range (max %d)", n, math.MaxInt32))
	}
	// Counting sort by row.
	counts := make([]int32, m.Rows+1)
	for _, r := range m.RowIdx {
		counts[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		counts[i+1] += counts[i]
	}
	cols := make([]int32, n)
	vals := make([]float32, n)
	next := make([]int32, m.Rows)
	copy(next, counts[:m.Rows])
	for k := 0; k < n; k++ {
		r := m.RowIdx[k]
		p := next[r]
		cols[p] = m.ColIdx[k]
		vals[p] = m.Vals[k]
		next[r] = p + 1
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: counts, ColIdx: cols, Vals: vals}
	out.sortRowsAndDedupe()
	return out
}

type colValSorter struct {
	cols []int32
	vals []float32
}

func (s colValSorter) Len() int           { return len(s.cols) }
func (s colValSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s colValSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// sortRowsAndDedupe sorts column indices inside every row and merges
// duplicates by summing their values, compacting storage in place.
func (m *CSR) sortRowsAndDedupe() {
	var w int32 // write cursor
	newPtr := make([]int32, m.Rows+1)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		seg := colValSorter{m.ColIdx[lo:hi], m.Vals[lo:hi]}
		if !sort.IsSorted(seg) {
			sort.Sort(seg)
		}
		start := w
		for k := lo; k < hi; k++ {
			if w > start && m.ColIdx[w-1] == m.ColIdx[k] {
				m.Vals[w-1] += m.Vals[k]
			} else {
				m.ColIdx[w] = m.ColIdx[k]
				m.Vals[w] = m.Vals[k]
				w++
			}
		}
		newPtr[i+1] = w
	}
	m.RowPtr = newPtr
	m.ColIdx = m.ColIdx[:w]
	m.Vals = m.Vals[:w]
}

// FromAdjacency builds a binary CSR matrix from adjacency lists: row i
// has a 1 at every column in adj[i]. Lists may be unsorted and contain
// duplicates (duplicates collapse to a single 1).
func FromAdjacency(rows, cols int, adj [][]int32) *CSR {
	if len(adj) != rows {
		panic(fmt.Sprintf("sparse: FromAdjacency row count mismatch: len(adj)=%d, rows=%d", len(adj), rows))
	}
	nnz := 0
	for _, l := range adj {
		nnz += len(l)
	}
	m := &CSR{Rows: rows, Cols: cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, nnz),
		Vals:   nil,
	}
	for i, l := range adj {
		sorted := make([]int32, len(l))
		copy(sorted, l)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for k, c := range sorted {
			if c < 0 || int(c) >= cols {
				panic(fmt.Sprintf("sparse: adjacency column %d out of range", c))
			}
			if k > 0 && sorted[k-1] == c {
				continue
			}
			m.ColIdx = append(m.ColIdx, c)
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	m.Vals = make([]float32, len(m.ColIdx))
	for i := range m.Vals {
		m.Vals[i] = 1
	}
	return m
}

// IsBinary reports whether every stored value equals 1.
func (m *CSR) IsBinary() bool {
	for _, v := range m.Vals {
		if v != 1 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: make([]int32, len(m.RowPtr)),
		ColIdx: make([]int32, len(m.ColIdx)),
		Vals:   make([]float32, len(m.Vals)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Vals, m.Vals)
	return c
}

// Transpose returns the transpose of m in canonical CSR form, built
// with a counting sort over columns (O(nnz + rows + cols)).
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows,
		RowPtr: make([]int32, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float32, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int32, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			p := next[c]
			t.ColIdx[p] = int32(i)
			t.Vals[p] = m.Vals[k]
			next[c] = p + 1
		}
	}
	// Transposing emits each output row in ascending source-row order,
	// so rows are already sorted and duplicate-free.
	return t
}

// IsSymmetric reports whether the sparsity pattern and values satisfy
// m[i][j] == m[j][i].
func (m *CSR) IsSymmetric() bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if len(t.ColIdx) != len(m.ColIdx) {
		return false
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != t.ColIdx[i] || m.Vals[i] != t.Vals[i] {
			return false
		}
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// AddSelfLoops returns a copy of binary matrix m with a 1 on every
// diagonal position — the (A + I) transform of Eq. 1. m must be square.
func (m *CSR) AddSelfLoops() *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: AddSelfLoops needs a square matrix, got %dx%d", m.Rows, m.Cols))
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, m.Rows+1)}
	out.ColIdx = make([]int32, 0, m.NNZ()+m.Rows)
	for i := 0; i < m.Rows; i++ {
		cols := m.RowCols(i)
		inserted := false
		for _, c := range cols {
			if !inserted && int(c) >= i {
				if int(c) > i {
					out.ColIdx = append(out.ColIdx, int32(i))
				}
				inserted = true
			}
			out.ColIdx = append(out.ColIdx, c)
		}
		if !inserted {
			out.ColIdx = append(out.ColIdx, int32(i))
		}
		out.RowPtr[i+1] = int32(len(out.ColIdx))
	}
	out.Vals = make([]float32, len(out.ColIdx))
	for i := range out.Vals {
		out.Vals[i] = 1
	}
	return out
}

// ToDense materializes the matrix as a dense.Matrix (tests and tiny
// examples only).
func (m *CSR) ToDense() *dense.Matrix {
	d := dense.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}

// FromDense builds a canonical CSR matrix from a dense one, storing
// every non-zero element.
func FromDense(d *dense.Matrix) *CSR {
	m := NewCSR(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Vals = append(m.Vals, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	return m
}

// FootprintBytes returns the memory the CSR representation occupies:
// 4·(rows+1) bytes of row pointers + 4 bytes per column index + 4 bytes
// per single-precision value. This matches the paper's S_CSR column
// (e.g. Cora: 2708 nodes, 10556 edges → 0.09 MiB).
func (m *CSR) FootprintBytes() int64 {
	return int64(4*(m.Rows+1)) + int64(8*m.NNZ())
}

// Degrees returns the out-degree (row nnz) of every row.
func (m *CSR) Degrees() []int32 {
	d := make([]int32, m.Rows)
	for i := range d {
		d[i] = m.RowPtr[i+1] - m.RowPtr[i]
	}
	return d
}

// Validate checks structural invariants (monotone row pointers, sorted
// unique in-range column indices) and returns a descriptive error for
// the first violation. Constructors in this package always produce
// valid matrices; Validate guards externally supplied data.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.ColIdx) || len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("sparse: storage lengths inconsistent (ptr end %d, cols %d, vals %d)",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Vals))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if hi < lo {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		if int(hi) > len(m.ColIdx) {
			return fmt.Errorf("sparse: RowPtr[%d] = %d past storage length %d", i+1, hi, len(m.ColIdx))
		}
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			if k > lo && m.ColIdx[k-1] >= c {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at position %d", i, k)
			}
		}
	}
	return nil
}

// Submatrix returns the principal submatrix on rows/columns [0, n) in
// canonical CSR form. Synthetic generators lay communities out
// consecutively, so a prefix submatrix preserves the structural regime
// — the basis of the reduced benchmark datasets.
func (m *CSR) Submatrix(n int) *CSR {
	if n >= m.Rows && n >= m.Cols {
		return m.Clone()
	}
	if n < 0 {
		n = 0
	}
	out := NewCSR(minInt(n, m.Rows), n)
	for i := 0; i < out.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if int(c) < n {
				out.ColIdx = append(out.ColIdx, c)
				out.Vals = append(out.Vals, vals[k])
			}
		}
		out.RowPtr[i+1] = int32(len(out.ColIdx))
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
