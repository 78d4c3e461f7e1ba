// Symmetric permutation of a square sparse matrix: P·A·Pᵀ relabels
// rows and columns by the same permutation, so the matrix still
// describes the same graph under new vertex names. The oracle uses it to
// check that the exact CBM build does not depend on vertex order.

package sparse

import (
	"fmt"
	"sort"
)

// PermuteSymmetric returns B = P·A·Pᵀ in canonical CSR form:
// B[i][j] = A[perm[i]][perm[j]], i.e. position i of the result holds
// source row perm[i] with its columns relabelled through the inverse
// permutation and re-sorted. The receiver must be square and perm must
// be a valid permutation of its rows; violations panic with the
// offending dimensions.
func (m *CSR) PermuteSymmetric(perm []int32) *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: PermuteSymmetric needs a square matrix, got %d×%d", m.Rows, m.Cols))
	}
	if len(perm) != m.Rows {
		panic(fmt.Sprintf("sparse: PermuteSymmetric permutation length %d, want %d", len(perm), m.Rows))
	}
	n := m.Rows
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = -1
	}
	for i, p := range perm {
		if p < 0 || int(p) >= n {
			panic(fmt.Sprintf("sparse: PermuteSymmetric perm[%d]=%d out of range [0,%d)", i, p, n))
		}
		if inv[p] != -1 {
			panic(fmt.Sprintf("sparse: PermuteSymmetric duplicate perm entry %d at positions %d and %d", p, inv[p], i))
		}
		inv[p] = int32(i)
	}

	out := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float32, m.NNZ()),
	}
	for i := 0; i < n; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + int32(m.RowNNZ(int(perm[i])))
	}
	for i := 0; i < n; i++ {
		cols, vals := m.Row(int(perm[i]))
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		dc, dv := out.ColIdx[lo:hi:hi], out.Vals[lo:hi:hi]
		for k, c := range cols {
			dc[k] = inv[c]
			dv[k] = vals[k]
		}
		// Column relabelling is not monotone in general; restore the
		// canonical sorted-unique invariant (relabelling a bijection
		// cannot introduce duplicates).
		seg := colValSorter{dc, dv}
		if !sort.IsSorted(seg) {
			sort.Sort(seg)
		}
	}
	return out
}
