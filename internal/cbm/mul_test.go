package cbm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func randomDiag(rng *xrand.RNG, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = rng.Float32() + 0.5 // keep away from 0: DAD divides by d
	}
	return d
}

func TestMulAXMatchesCSR(t *testing.T) {
	rng := xrand.New(1)
	a := randomBinary(rng, 40, 0.2, true)
	m, _, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, 40, 13)
	got := m.Mul(b)
	want := kernels.SpMM(a, b)
	if d := dense.MaxRelDiff(got, want, 1); d > 1e-5 {
		t.Fatalf("AX rel diff %v", d)
	}
}

func TestMulADXMatchesCSR(t *testing.T) {
	rng := xrand.New(2)
	a := randomBinary(rng, 35, 0.25, true)
	m, _, err := Compress(a, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 35)
	ad := m.WithColumnScale(d)
	if ad.Kind() != KindAD {
		t.Fatalf("kind = %v", ad.Kind())
	}
	b := randomDense(rng, 35, 9)
	got := ad.Mul(b)
	want := kernels.SpMM(a.ScaleCols(d), b)
	if diff := dense.MaxRelDiff(got, want, 1); diff > 1e-5 {
		t.Fatalf("ADX rel diff %v", diff)
	}
}

func TestMulDADXMatchesCSR(t *testing.T) {
	rng := xrand.New(3)
	a := randomBinary(rng, 33, 0.25, true)
	m, _, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 33)
	dad := m.WithSymmetricScale(d)
	if dad.Kind() != KindDAD {
		t.Fatalf("kind = %v", dad.Kind())
	}
	b := randomDense(rng, 33, 7)
	got := dad.Mul(b)
	want := kernels.SpMM(a.ScaleCols(d).ScaleRows(d), b)
	if diff := dense.MaxRelDiff(got, want, 1); diff > 1e-4 {
		t.Fatalf("DADX rel diff %v", diff)
	}
}

func TestMulParallelMatchesSequentialAllKinds(t *testing.T) {
	rng := xrand.New(4)
	a := synth.SBMGroups(500, 25, 0.8, 0.5, 11)
	n := a.Rows
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, n)
	b := randomDense(rng, n, 20)
	mats := map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	}
	for name, m := range mats {
		seq := m.Mul(b)
		for _, threads := range []int{2, 4, 8} {
			par := m.MulParallel(b, threads)
			if diff := dense.MaxRelDiff(seq, par, 1); diff > 1e-6 {
				t.Fatalf("%s threads=%d: rel diff %v", name, threads, diff)
			}
		}
	}
}

// Branch-parallel updates must be bitwise identical to sequential:
// every row's update chain lives inside exactly one branch.
func TestMulParallelBitwiseDeterministic(t *testing.T) {
	rng := xrand.New(5)
	a := synth.SBMGroups(400, 20, 0.9, 0.3, 17)
	m, _, err := Compress(a, Options{Alpha: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, a.Rows, 8)
	first := m.MulParallel(b, 8)
	for i := 0; i < 5; i++ {
		again := m.MulParallel(b, 8)
		if !first.Equal(again) {
			t.Fatalf("run %d: parallel result not deterministic", i)
		}
	}
	if !first.Equal(m.Mul(b)) {
		t.Fatal("parallel differs bitwise from sequential")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := xrand.New(6)
	a := randomBinary(rng, 45, 0.2, true)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 45)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		v := make([]float32, 45)
		rng.FillUniform(v)
		bv := dense.New(45, 1)
		copy(bv.Data, v)
		want := m.Mul(bv)
		got := m.MulVec(v)
		for i := range got {
			diff := float64(got[i] - want.At(i, 0))
			if diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("%s: MulVec[%d] = %v, want %v", name, i, got[i], want.At(i, 0))
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { m.Mul(dense.New(3, 2)) },
		func() { m.MulTo(dense.New(2, 2), dense.New(a.Rows, 2), 1) },
		func() { m.MulVec(make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			f()
		}()
	}
}

func TestScaledVariantPanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, _ := Compress(a, Options{})
	d := make([]float32, a.Rows)
	for i := range d {
		d[i] = 1
	}
	ad := m.WithColumnScale(d)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: scaling a scaled matrix")
			}
		}()
		ad.WithColumnScale(d)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: wrong diag length")
			}
		}()
		m.WithSymmetricScale(make([]float32, 2))
	}()
}

// Neither plan's per-element operation order depends on the thread
// count: the two-stage delta SpMM computes each output row alone and
// the update walks each branch in pre-order on one worker; the CSR plan
// sums each row in stored column order. Each plan's output must
// therefore be bitwise equal to its own single-threaded run for every
// kind, thread count and column width.
func TestStrategyEquivalenceAllKinds(t *testing.T) {
	rng := xrand.New(83)
	a := synth.SBMGroups(260, 26, 0.85, 0.4, 37)
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		for _, cols := range []int{1, 8, 33, 255, 256, 259} {
			b := randomDense(rng, a.Rows, cols)
			for _, plan := range []UpdateStrategy{StrategyBranch, StrategyCSR} {
				want := dense.New(a.Rows, cols)
				m.MulToStrategy(want, b, 1, plan)
				for _, threads := range []int{2, 4, 8} {
					got := dense.New(a.Rows, cols)
					m.MulToStrategy(got, b, threads, plan)
					if !got.Equal(want) {
						t.Fatalf("%s %v threads=%d cols=%d: not bitwise equal to threads=1",
							name, plan, threads, cols)
					}
				}
			}
		}
	}
}

// The strategy entry point must report the offending dimensions in its
// shape panics, in the same format as MulTo.
func TestMulToStrategyShapePanicMessage(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c, b *dense.Matrix
		want string
	}{
		{"operand rows", dense.New(6, 2), dense.New(3, 2), "cbm: Mul shape mismatch: 6×6 · 3×2"},
		{"output shape", dense.New(2, 2), dense.New(6, 3), "cbm: Mul output shape mismatch: got 2×2, want 6×3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected shape panic")
				}
				msg, ok := r.(string)
				if !ok || msg != c.want {
					t.Fatalf("panic = %v, want %q", r, c.want)
				}
			}()
			m.MulToStrategy(c.c, c.b, 1, StrategyBranch)
		})
	}
}

// Property: CBM product equals CSR product across random graphs, α
// values, kinds, and thread counts — the paper's correctness criterion
// (1e-5 relative tolerance).
func TestMulEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(50)
		a := randomBinary(rng, n, 0.1+0.3*rng.Float64(), rng.Float64() < 0.7)
		alpha := rng.Intn(6)
		threads := 1 + rng.Intn(4)
		base, _, err := Compress(a, Options{Alpha: alpha, Threads: threads})
		if err != nil {
			return false
		}
		b := randomDense(rng, n, 1+rng.Intn(16))
		d := randomDiag(rng, n)
		// AX
		if dense.MaxRelDiff(base.MulParallel(b, threads), kernels.SpMM(a, b), 1) > 1e-5 {
			return false
		}
		// ADX
		ad := base.WithColumnScale(d)
		if dense.MaxRelDiff(ad.MulParallel(b, threads), kernels.SpMM(a.ScaleCols(d), b), 1) > 1e-4 {
			return false
		}
		// DADX
		dad := base.WithSymmetricScale(d)
		want := kernels.SpMM(a.ScaleCols(d).ScaleRows(d), b)
		return dense.MaxRelDiff(dad.MulParallel(b, threads), want, 1) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Scalar-operation accounting: the delta matrix must never have more
// non-zeros than the original (Property 2's operation-count argument).
func TestProperty2OperationBound(t *testing.T) {
	for _, alpha := range []int{0, 1, 4, 16} {
		a := synth.SBMGroups(400, 20, 0.75, 0.5, 21)
		m, _, err := Compress(a, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if m.Delta().NNZ() > a.NNZ() {
			t.Fatalf("alpha=%d: delta nnz %d > A nnz %d", alpha, m.Delta().NNZ(), a.NNZ())
		}
	}
}

func TestMulD1AD2MatchesCSR(t *testing.T) {
	// The paper's D₁AD₂ extension: distinct left and right diagonals.
	rng := xrand.New(31)
	a := randomBinary(rng, 38, 0.25, true)
	base, _, err := Compress(a, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	left := randomDiag(rng, 38)
	right := randomDiag(rng, 38)
	m := base.WithScales(left, right)
	b := randomDense(rng, 38, 9)
	got := m.MulParallel(b, 3)
	want := kernels.SpMM(a.ScaleCols(right).ScaleRows(left), b)
	if d := dense.MaxRelDiff(got, want, 1); d > 1e-4 {
		t.Fatalf("D1AD2 rel diff %v", d)
	}
	// symmetric case degenerates to WithSymmetricScale
	sym := base.WithScales(left, left)
	dad := base.WithSymmetricScale(left)
	if !sym.Mul(b).Equal(dad.Mul(b)) {
		t.Fatal("WithScales(d,d) differs from WithSymmetricScale(d)")
	}
}

func TestMulVecParallelMatchesSequential(t *testing.T) {
	rng := xrand.New(41)
	a := synth.SBMGroups(300, 20, 0.8, 0.5, 13)
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		v := make([]float32, a.Rows)
		rng.FillUniform(v)
		seq := m.MulVec(v)
		for _, threads := range []int{2, 4, 8} {
			par := m.MulVecParallel(v, threads)
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("%s threads=%d: element %d differs (%v vs %v)",
						name, threads, i, seq[i], par[i])
				}
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Describe()
	for _, want := range []string{"kind=A", "n=6", "deltas="} {
		if !contains(s, want) {
			t.Fatalf("Describe() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
