// Permutation checks: the exact CBM build does not depend on vertex
// order. Two properties are asserted: the symmetric permutation itself
// is exactly invertible (structural, bitwise), and the permuted multiply
// path — compress P·A·Pᵀ, gather the operand, multiply, scatter the
// product — matches the raw-order product within floating-point
// tolerance. Tolerance, not bitwise: relabelling columns reorders the
// additions inside every output element, and float addition does not
// commute in rounding.

package oracle

import (
	"fmt"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// CheckPermutationRoundTrip verifies that the symmetric permutation is
// exactly invertible: P⁻¹·(P·A·Pᵀ)·P⁻ᵀ must equal A bitwise (row
// pointers, column indices and values). perm maps new position →
// source row, the sparse.CSR.PermuteSymmetric convention.
func CheckPermutationRoundTrip(a *sparse.CSR, perm []int32) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("oracle: CheckPermutationRoundTrip needs a square matrix, got %d×%d", a.Rows, a.Cols))
	}
	if len(perm) != a.Rows {
		panic(fmt.Sprintf("oracle: CheckPermutationRoundTrip permutation length %d, want %d", len(perm), a.Rows))
	}
	inv := make([]int32, len(perm))
	for i, p := range perm {
		inv[p] = int32(i)
	}
	back := a.PermuteSymmetric(perm).PermuteSymmetric(inv)
	if err := back.Validate(); err != nil {
		return fmt.Errorf("permutation round trip: result invalid: %w", err)
	}
	for i := range a.RowPtr {
		if back.RowPtr[i] != a.RowPtr[i] {
			return fmt.Errorf("permutation round trip: RowPtr[%d] = %d, want %d", i, back.RowPtr[i], a.RowPtr[i])
		}
	}
	for k := range a.ColIdx {
		if back.ColIdx[k] != a.ColIdx[k] {
			return fmt.Errorf("permutation round trip: ColIdx[%d] = %d, want %d", k, back.ColIdx[k], a.ColIdx[k])
		}
		if back.Vals[k] != a.Vals[k] {
			return fmt.Errorf("permutation round trip: Vals[%d] = %v, want %v", k, back.Vals[k], a.Vals[k])
		}
	}
	return nil
}

// CheckPermutationEquivalence is the permutation metamorphic check:
// compressing the permuted matrix and multiplying the permuted operand
// must — after scattering the product back to original row order —
// match the raw-order CBM product within tol. The compression tree is
// rebuilt on P·A·Pᵀ, so the check exercises the whole permuted
// pipeline, not just the gather/scatter bookkeeping. It also verifies
// the exact structural ratio invariance claim: the permuted compression
// must occupy exactly the raw compression's footprint (the candidate
// pass is global and the tree solvers are optimal, DESIGN.md).
func CheckPermutationEquivalence(a *sparse.CSR, perm []int32, b *dense.Matrix, opt cbm.Options, threads int, tol Tolerance) error {
	if len(perm) != a.Rows {
		panic(fmt.Sprintf("oracle: CheckPermutationEquivalence permutation length %d, want %d", len(perm), a.Rows))
	}
	if b.Rows != a.Rows {
		panic(fmt.Sprintf("oracle: CheckPermutationEquivalence operand has %d rows, want %d", b.Rows, a.Rows))
	}
	m, _, err := cbm.Compress(a, opt)
	if err != nil {
		return fmt.Errorf("permutation equivalence: compress raw: %w", err)
	}
	pa := a.PermuteSymmetric(perm)
	mp, _, err := cbm.Compress(pa, opt)
	if err != nil {
		return fmt.Errorf("permutation equivalence: compress permuted: %w", err)
	}
	if mp.FootprintBytes() != m.FootprintBytes() {
		return fmt.Errorf("permutation equivalence: footprint changed under permutation: %d vs %d bytes",
			mp.FootprintBytes(), m.FootprintBytes())
	}

	want := dense.New(a.Rows, b.Cols)
	m.MulTo(want, b, threads)

	bp := dense.New(b.Rows, b.Cols)
	for i, s := range perm {
		copy(bp.Row(i), b.Row(int(s)))
	}
	cp := dense.New(a.Rows, b.Cols)
	mp.MulTo(cp, bp, threads)
	got := dense.New(a.Rows, b.Cols)
	for i, s := range perm {
		copy(got.Row(int(s)), cp.Row(i))
	}
	if d := Compare(got, want, tol); d != nil {
		return fmt.Errorf("permutation equivalence (threads=%d): %w", threads, d)
	}
	return nil
}
