package cbm

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// portableTwoStage is the two-stage product written as plain scalar
// loops with the operation order of the portable kernels: the delta
// SpMM row by row in stored nonzero order (v == 1 adds, ±0 skips,
// anything else adds v·b), then the Eq. 6 update in branch pre-order.
func portableTwoStage(m *Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.New(m.n, b.Cols)
	for i := 0; i < m.n; i++ {
		cols, vals := m.delta.Row(i)
		crow := c.Row(i)
		for k, col := range cols {
			v, brow := vals[k], b.Row(int(col))
			for j := range crow {
				switch {
				case v == 1:
					crow[j] += brow[j]
				case v != 0:
					crow[j] += v * brow[j]
				}
			}
		}
	}
	for _, x := range m.order {
		p, row := m.parent[x], c.Row(int(x))
		switch {
		case m.kind != KindDAD && p >= 0:
			prow := c.Row(int(p))
			for j := range row {
				row[j] += prow[j]
			}
		case m.kind == KindDAD && p < 0:
			for j := range row {
				row[j] *= m.diag[x]
			}
		case m.kind == KindDAD:
			prow, dx, s := c.Row(int(p)), m.diag[x], m.diag[x]/m.diag[p]
			for j := range row {
				row[j] = s*prow[j] + dx*row[j]
			}
		}
	}
	return c
}

// sameBits reports whether x and y have identical bits, counting any
// two NaNs as equal: Go leaves the sign and payload of a NaN result
// unspecified, and the compiler orders the operands of commutative
// operations freely, so NaN bits are not a property of either kernel.
func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// TestTwoStageBitwisePortable checks that the one-pass multiply of A,
// AD and DAD matrices — the delta SpMM with the tree update in its
// store, on the AVX kernel where the CPU has it — is bitwise equal to
// the two-stage product in plain scalar loops, across strip widths, diagonals holding
// ±1, B holding signed zeros and non-finite values, and thread counts.
func TestTwoStageBitwisePortable(t *testing.T) {
	rng := xrand.New(16)
	a := synth.SBMGroups(240, 12, 0.9, 0.3, 16)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumBranches() == a.Rows {
		t.Fatal("compression built no tree: the update epilogue would go untested")
	}
	// DAD divides by the diagonal, so it holds ±1 and ordinary scales
	// but no zeros.
	d := make([]float32, a.Rows)
	for i := range d {
		switch rng.Intn(4) {
		case 0:
			d[i] = 1
		case 1:
			d[i] = -1
		default:
			d[i] = 0.25 + rng.Float32()
		}
	}
	kinds := []*Matrix{base, base.WithColumnScale(d), base.WithSymmetricScale(d)}
	special := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, n := range []int{1, 7, 8, 9, 16, 17, 31, 32, 33, 40, 57, 64, 129} {
		for _, nonfinite := range []bool{false, true} {
			b := dense.New(a.Rows, n)
			rng.FillUniform(b.Data)
			if nonfinite {
				for i := range b.Data {
					if rng.Intn(40) == 0 {
						b.Data[i] = special[rng.Intn(len(special))]
					}
				}
			}
			for _, m := range kinds {
				want := portableTwoStage(m, b)
				for _, threads := range []int{1, 2, 4} {
					c := dense.New(a.Rows, n)
					for i := range c.Data {
						c.Data[i] = float32(math.NaN())
					}
					m.MulTo(c, b, threads)
					for i, v := range c.Data {
						if !sameBits(v, want.Data[i]) {
							t.Fatalf("%v n=%d nonfinite=%v threads=%d: element %d = %v (bits %#x), portable %v (bits %#x)",
								m.Kind(), n, nonfinite, threads, i, v, math.Float32bits(v),
								want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestTwoStageBlockScheduleBitwise checks the parallel multiply's blocks
// of whole branches on a tree built by hand: one 300-row chain, longer
// than a block, ahead of 200 branches of one to three rows that share
// blocks. Every thread count must give the scalar two-stage product,
// which a block run twice or skipped would break.
func TestTwoStageBlockScheduleBitwise(t *testing.T) {
	rng := xrand.New(21)
	const chain, small = 300, 200
	var parent []int32
	for x := 0; x < chain; x++ {
		parent = append(parent, int32(x-1))
	}
	for i := 0; i < small; i++ {
		root := int32(len(parent))
		parent = append(parent, -1)
		for k := rng.Intn(3); k > 0; k-- {
			parent = append(parent, root)
		}
	}
	n := len(parent)
	delta := randomBinary(rng, n, 0.01, false)
	for k := range delta.Vals {
		delta.Vals[k] = []float32{1, -1}[rng.Intn(2)]
	}
	for _, m := range []*Matrix{
		{n: n, kind: KindA, delta: delta, parent: parent},
		{n: n, kind: KindDAD, delta: delta, parent: parent, diag: randomDiag(rng, n)},
	} {
		m.order, m.branchOff = branchDecompose(parent)
		for _, width := range []int{8, 33} {
			b := randomDense(rng, n, width)
			want := portableTwoStage(m, b)
			for _, threads := range []int{1, 2, 4} {
				c := dense.New(n, width)
				m.MulTo(c, b, threads)
				for i, v := range c.Data {
					if !sameBits(v, want.Data[i]) {
						t.Fatalf("%v n=%d threads=%d: element %d = %v, scalar %v", m.kind, width, threads, i, v, want.Data[i])
					}
				}
			}
		}
	}
}

// TestOnePassScheduleBitwise checks the one-pass multiply's blocks of
// whole branches on a tree built by hand: a 400-row chain, longer than
// a block at every thread count, ahead of 100 branches of two to four
// rows and 500 single-row branches, the shape of a pubmed-like tail.
// A, AD and DAD at 1, 2 and 4 threads, through MulTo, MulToCtx and an
// n×1 MulVec, must all give the scalar two-stage product; a block run
// twice, skipped or split inside a branch would not.
func TestOnePassScheduleBitwise(t *testing.T) {
	rng := xrand.New(27)
	const chain, small, single = 400, 100, 500
	var parent []int32
	for x := 0; x < chain; x++ {
		parent = append(parent, int32(x-1))
	}
	for i := 0; i < small; i++ {
		root := int32(len(parent))
		parent = append(parent, -1)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			parent = append(parent, root+int32(rng.Intn(int(int32(len(parent))-root))))
		}
	}
	for i := 0; i < single; i++ {
		parent = append(parent, -1)
	}
	n := len(parent)
	delta := randomBinary(rng, n, 0.01, false)
	for k := range delta.Vals {
		delta.Vals[k] = []float32{1, -1}[rng.Intn(2)]
	}
	base := &Matrix{n: n, kind: KindA, delta: delta, parent: parent}
	base.order, base.branchOff = branchDecompose(parent)
	d := randomDiag(rng, n)
	for _, m := range []*Matrix{base, base.WithColumnScale(d), base.WithSymmetricScale(d)} {
		for _, width := range []int{32, 19} {
			b := randomDense(rng, n, width)
			want := portableTwoStage(m, b)
			for _, threads := range []int{1, 2, 4} {
				c := dense.New(n, width)
				m.MulTo(c, b, threads)
				ctxC := dense.New(n, width)
				m.MulToCtx(exec.New(threads), ctxC, b)
				for i, v := range c.Data {
					if !sameBits(v, want.Data[i]) || !sameBits(ctxC.Data[i], want.Data[i]) {
						t.Fatalf("%v n=%d threads=%d: element %d = %v (MulToCtx %v), scalar %v",
							m.kind, width, threads, i, v, ctxC.Data[i], want.Data[i])
					}
				}
			}
		}
		v := randomDense(rng, n, 1)
		want := portableTwoStage(m, v)
		for _, threads := range []int{1, 2, 4} {
			for i, y := range m.MulVecParallel(v.Data, threads) {
				if !sameBits(y, want.Data[i]) {
					t.Fatalf("%v MulVec threads=%d: element %d = %v, scalar %v", m.kind, threads, i, y, want.Data[i])
				}
			}
		}
	}
}

// TestTwoStageZeroAlloc pins the 1-thread multiply of every kind, through
// MulTo and MulToCtx, as allocation-free, at widths with and without a
// tail and with no full strip.
func TestTwoStageZeroAlloc(t *testing.T) {
	rng := xrand.New(4)
	a := synth.SBMGroups(240, 12, 0.9, 0.3, 4)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	ctx := exec.New(1)
	for _, n := range []int{1, 19, 32, 33, 37} {
		b := randomDense(rng, a.Rows, n)
		c := dense.New(a.Rows, n)
		for _, m := range []*Matrix{base, base.WithColumnScale(d), base.WithSymmetricScale(d)} {
			if allocs := testing.AllocsPerRun(20, func() { m.MulTo(c, b, 1) }); allocs != 0 {
				t.Fatalf("%v n=%d: MulTo allocates %v times per call, want 0", m.Kind(), n, allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { m.MulToCtx(ctx, c, b) }); allocs != 0 {
				t.Fatalf("%v n=%d: MulToCtx allocates %v times per call, want 0", m.Kind(), n, allocs)
			}
		}
	}
}

// TestMulStageLedger pins the stage spans one multiply records through
// its context's sink, which the per-layer split of a request is built
// from: one StageSpMM span and one SpMM call, and no StageUpdate span,
// since the update rides in the SpMM's store, at 1 and 2 threads.
func TestMulStageLedger(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	rng := xrand.New(9)
	a := synth.SBMGroups(240, 12, 0.9, 0.3, 9)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, a.Rows, 32)
	c := dense.New(a.Rows, 32)
	for _, m := range []*Matrix{base, base.WithSymmetricScale(randomDiag(rng, a.Rows))} {
		for _, threads := range []int{1, 2} {
			rec := obs.NewRecorder()
			m.MulToCtx(exec.NewWithSink(threads, rec), c, b)
			spmm, _ := rec.StageTotals(obs.StageSpMM)
			update, _ := rec.StageTotals(obs.StageUpdate)
			if spmm != 1 || update != 0 {
				t.Fatalf("%v threads=%d: %d spmm and %d update spans, want 1 and 0",
					m.Kind(), threads, spmm, update)
			}
			if calls := rec.CounterValue(obs.CounterSpMMCalls); calls != 1 {
				t.Fatalf("%v threads=%d: %d SpMM calls, want 1", m.Kind(), threads, calls)
			}
		}
	}
}
