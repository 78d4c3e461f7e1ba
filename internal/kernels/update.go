package kernels

import (
	"fmt"
	"unsafe"

	"repro/internal/blas"
	"repro/internal/dense"
)

// TreeUpdate applies the update stage of the CBM two-stage product
// (Eq. 6 of the paper) to the listed rows of c, in the given order. c
// holds the delta SpMM result, already scaled by diag for DAD matrices
// (SpMMDiagTo's left diagonal); every row must come after its parent
// in rows, or belong to a run that has already been updated, so each
// parent row is final when its children read it (a pre-order run of
// compression-tree rows does this). Rows whose parent is the virtual
// root (p < 0) are final already and are left as they are.
//
// With diag nil (A and AD matrices) row x becomes row x + row p for
// p = parent[x]. With diag (DAD matrices) row x becomes
// (d_x/d_p)·row p + row x, the quotient rounded to float32: with row x
// holding d_x·((AD)'B)_x this is Eq. 6's d_x·(u_p/d_p + ((AD)'B)_x).
//
// On amd64 with AVX one assembly call covers every full 8-column strip
// of the whole run and the n mod 8 tail columns run the portable loop,
// which is the whole kernel elsewhere. Each lane does exactly what
// blas.Add and blas.Axpy do to that element, a zero quotient skipping
// the row as Axpy skips a zero scale, so the result is bitwise
// identical to the portable loop. The row indices in rows, and the
// parents they point at, must be rows of c; they are not
// bounds-checked on the AVX path.
//
//cbm:hotpath
func TreeUpdate(c *dense.Matrix, rows, parent []int32, diag []float32) {
	if len(parent) != c.Rows {
		panic(fmt.Sprintf("kernels: TreeUpdate parent length %d, want %d", len(parent), c.Rows))
	}
	if diag != nil && len(diag) != c.Rows {
		panic(fmt.Sprintf("kernels: TreeUpdate diagonal length %d, want %d", len(diag), c.Rows))
	}
	full := 0
	if useAVX && c.Cols >= 8 {
		full = c.Cols &^ 7
		treeUpdateAVX(unsafe.SliceData(c.Data), unsafe.SliceData(rows), unsafe.SliceData(parent),
			unsafe.SliceData(diag), len(rows), c.Cols, full/8)
	}
	if full < c.Cols {
		treeUpdatePortable(c, rows, parent, diag, full)
	}
}

// treeUpdatePortable applies TreeUpdate to columns [lo, c.Cols) of the
// listed rows. It is the reference the AVX kernel matches bit for bit.
//
//cbm:hotpath
func treeUpdatePortable(c *dense.Matrix, rows, parent []int32, diag []float32, lo int) {
	for _, x := range rows {
		p := parent[x]
		if p < 0 {
			continue // virtual parent row is zero: nothing to add
		}
		prow, row := c.Row(int(p))[lo:], c.Row(int(x))[lo:]
		if diag == nil {
			blas.Add(prow, row)
		} else {
			blas.Axpy(diag[x]/diag[p], prow, row)
		}
	}
}
