package kernels

import (
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func randomCSR(rng *xrand.RNG, rows, cols int, density float64, binary bool) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				v := float32(1)
				if !binary {
					v = rng.Float32()*2 - 1
				}
				coo.Append(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

func randomDense(rng *xrand.RNG, rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	rng.FillUniform(m.Data)
	return m
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := xrand.New(1)
	for _, binary := range []bool{true, false} {
		s := randomCSR(rng, 37, 23, 0.15, binary)
		b := randomDense(rng, 23, 11)
		got := SpMM(s, b)
		want := dense.Mul(s.ToDense(), b)
		if d := dense.MaxRelDiff(got, want, 1); d > 1e-5 {
			t.Fatalf("binary=%v: rel diff %v", binary, d)
		}
	}
}

func TestSpMMParallelMatchesSequential(t *testing.T) {
	rng := xrand.New(2)
	s := randomCSR(rng, 101, 53, 0.1, false)
	b := randomDense(rng, 53, 17)
	seq := SpMM(s, b)
	for _, threads := range []int{2, 3, 8, 0} {
		par := SpMMParallel(s, b, threads)
		if !seq.Equal(par) {
			t.Fatalf("threads=%d: parallel SpMM differs", threads)
		}
	}
}

func TestSpMMEmptyMatrix(t *testing.T) {
	s := sparse.NewCSR(5, 5)
	b := randomDense(xrand.New(3), 5, 4)
	got := SpMM(s, b)
	for _, v := range got.Data {
		if v != 0 {
			t.Fatal("empty sparse × dense should be zero")
		}
	}
}

func TestSpMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpMM(sparse.NewCSR(3, 4), dense.New(5, 2))
}

func TestSpMMToOverwritesGarbage(t *testing.T) {
	rng := xrand.New(4)
	s := randomCSR(rng, 9, 9, 0.2, true)
	b := randomDense(rng, 9, 5)
	c := randomDense(rng, 9, 5) // garbage
	SpMMTo(c, s, b, 2)
	want := SpMM(s, b)
	if !c.Equal(want) {
		t.Fatal("SpMMTo did not fully overwrite output")
	}
}

// Property: SpMM is linear in B.
func TestSpMMLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		r := 1 + rng.Intn(15)
		k := 1 + rng.Intn(15)
		c := 1 + rng.Intn(8)
		s := randomCSR(rng, r, k, 0.25, false)
		b1 := randomDense(rng, k, c)
		b2 := randomDense(rng, k, c)
		sum := b1.Clone().Add(b2)
		left := SpMM(s, sum)
		right := SpMM(s, b1).Add(SpMM(s, b2))
		return dense.MaxRelDiff(left, right, 1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling the matrix scales the product.
func TestSpMMScaleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(12)
		s := randomCSR(rng, n, n, 0.3, true)
		b := randomDense(rng, n, 4)
		d := make([]float32, n)
		for i := range d {
			d[i] = rng.Float32() + 0.5
		}
		// (diag(d)·S)·B == diag(d)·(S·B)
		left := SpMM(s.ScaleRows(d), b)
		right := SpMM(s, b).ScaleRows(d)
		return dense.MaxRelDiff(left, right, 1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
