// Metamorphic property checks: relations that must hold between
// different ways of computing the same product, regardless of the
// input graph. Each check returns nil on success or a descriptive
// error naming the violated property.

package oracle

import (
	"fmt"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// CheckLinearity verifies M·(x·B₁ + y·B₂) ≈ x·(M·B₁) + y·(M·B₂). The
// combination introduces an extra rounding step on both sides, so
// callers should pass a loosened tolerance.
func CheckLinearity(m *cbm.Matrix, b1, b2 *dense.Matrix, x, y float32, threads int, tol Tolerance) error {
	if b1.Rows != b2.Rows || b1.Cols != b2.Cols {
		panic(fmt.Sprintf("oracle: CheckLinearity operand shape mismatch: b1 is %dx%d, b2 is %dx%d", b1.Rows, b1.Cols, b2.Rows, b2.Cols))
	}
	comb := dense.New(b1.Rows, b1.Cols)
	for i := range comb.Data {
		comb.Data[i] = x*b1.Data[i] + y*b2.Data[i]
	}
	left := m.MulParallel(comb, threads)
	r1 := m.MulParallel(b1, threads)
	r2 := m.MulParallel(b2, threads)
	right := dense.New(b1.Rows, b1.Cols)
	for i := range right.Data {
		right.Data[i] = x*r1.Data[i] + y*r2.Data[i]
	}
	if d := Compare(left, right, tol); d != nil {
		return fmt.Errorf("linearity M(%v·B1+%v·B2) != %v·MB1+%v·MB2: %w", x, y, x, y, d)
	}
	return nil
}

// CheckTreeReconstruction verifies the compression is lossless: the
// delta matrix applied along the compression tree (cbm.Matrix.ToCSR)
// must rebuild the original binary pattern exactly — the A == Δ ⊕ tree
// identity behind Property 1.
func CheckTreeReconstruction(a *sparse.CSR, m *cbm.Matrix) error {
	back := m.ToCSR()
	if back.Rows != a.Rows || back.Cols != a.Cols {
		return fmt.Errorf("tree reconstruction: shape %d×%d, want %d×%d",
			back.Rows, back.Cols, a.Rows, a.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		got, want := back.RowCols(i), a.RowCols(i)
		if len(got) != len(want) {
			return fmt.Errorf("tree reconstruction: row %d has %d cols, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				return fmt.Errorf("tree reconstruction: row %d col %d is %d, want %d",
					i, k, got[k], want[k])
			}
		}
	}
	return nil
}

// CheckMulVecConsistency verifies the matrix-vector path against the
// matrix-matrix path. MulVec is the two-stage plan on v as an n×1
// operand, so it must be bitwise identical to MulTo on the
// single-column matrix holding v, and MulVecParallel must
// be bitwise identical to MulVec (per-element operation order does not
// depend on the thread count).
func CheckMulVecConsistency(m *cbm.Matrix, v []float32, threads int) error {
	n := m.Rows()
	if len(v) != n {
		panic(fmt.Sprintf("oracle: CheckMulVecConsistency vector length mismatch: len(v)=%d, want %d", len(v), n))
	}
	y := m.MulVec(v)
	b := dense.New(n, 1)
	copy(b.Data, v)
	c := dense.New(n, 1)
	m.MulTo(c, b, 1)
	if d := CompareVec(y, c.Data, Tolerance{}); d != nil {
		return fmt.Errorf("MulVec not bitwise equal to single-column two-stage MulTo: %w", d)
	}
	if d := CompareVec(m.MulVecParallel(v, threads), y, Tolerance{}); d != nil {
		return fmt.Errorf("MulVecParallel(threads=%d) not bitwise equal to MulVec: %w", threads, d)
	}
	return nil
}

// CheckStrategyEquivalence verifies MulTo's thread invariance: the
// two-stage plan's per-element operation order does not depend on the
// thread count, so MulTo must match its single-threaded run bitwise at
// every thread count in threadsList.
func CheckStrategyEquivalence(m *cbm.Matrix, b *dense.Matrix, threadsList []int) error {
	want := dense.New(m.Rows(), b.Cols)
	m.MulTo(want, b, 1)
	got := dense.New(m.Rows(), b.Cols)
	for _, threads := range threadsList {
		m.MulTo(got, b, threads)
		if !got.Equal(want) {
			d := Compare(got, want, Tolerance{})
			return fmt.Errorf("strategy equivalence (two-stage not thread-invariant, threads=%d): %w", threads, d)
		}
	}
	return nil
}

// CheckAlphaInvariance verifies the represented product is independent
// of the pruning threshold: compressing A at every α must yield the
// same A·B, compared against the independent CSR oracle. A single
// candidate pass (cbm.Builder) serves the whole sweep.
func CheckAlphaInvariance(a *sparse.CSR, alphas []int, b *dense.Matrix, threads int, tol Tolerance) error {
	builder, err := cbm.NewBuilder(a, cbm.Options{Threads: threads})
	if err != nil {
		return fmt.Errorf("alpha invariance: builder: %w", err)
	}
	want := CSRProduct(a, b)
	for _, alpha := range alphas {
		m, _, err := builder.Compress(alpha, false)
		if err != nil {
			return fmt.Errorf("alpha invariance: compress(α=%d): %w", alpha, err)
		}
		got := m.MulParallel(b, threads)
		if d := Compare(got, want, tol); d != nil {
			return fmt.Errorf("alpha invariance (α=%d, threads=%d): %w", alpha, threads, d)
		}
	}
	return nil
}
