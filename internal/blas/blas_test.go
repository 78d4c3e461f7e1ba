package blas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randVec(rng *xrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestAxpyMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1001} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		want := make([]float32, n)
		a := float32(1.7)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		Axpy(a, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestAxpyZeroAlphaIsNoop(t *testing.T) {
	rng := xrand.New(2)
	x := randVec(rng, 33)
	y := randVec(rng, 33)
	orig := make([]float32, len(y))
	copy(orig, y)
	Axpy(0, x, y)
	for i := range y {
		if y[i] != orig[i] {
			t.Fatalf("Axpy with a=0 modified y at %d", i)
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Axpy(1, make([]float32, 3), make([]float32, 4))
}

func TestAddMatchesAxpyOne(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 8, 23, 64, 129} {
		x := randVec(rng, n)
		y1 := randVec(rng, n)
		y2 := make([]float32, n)
		copy(y2, y1)
		Add(x, y1)
		Axpy(1, x, y2)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: Add differs from Axpy(1,..) at %d", n, i)
			}
		}
	}
}

func TestScal(t *testing.T) {
	rng := xrand.New(6)
	for _, n := range []int{0, 1, 8, 9, 31} {
		x := randVec(rng, n)
		want := make([]float32, n)
		for i := range want {
			want[i] = x[i] * 3.5
		}
		Scal(3.5, x)
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("n=%d: Scal[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestDot(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 100} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		var want float64
		for i := range x {
			want += float64(x[i]) * float64(y[i])
		}
		got := float64(Dot(x, y))
		if !almostEqual(got, want, 1e-5) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, got, want)
		}
	}
}

func TestFill(t *testing.T) {
	x := make([]float32, 17)
	Fill(x, 2.5)
	for i, v := range x {
		if v != 2.5 {
			t.Fatalf("Fill[%d] = %v", i, v)
		}
	}
}

// Property: Axpy is linear — Axpy(a, x, y) then Axpy(b, x, y) equals
// Axpy(a+b, x, y) within float tolerance.
func TestAxpyAdditivityProperty(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw int8) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(64)
		a := float32(aRaw) / 16
		b := float32(bRaw) / 16
		x := randVec(rng, n)
		y0 := randVec(rng, n)
		y1 := make([]float32, n)
		copy(y1, y0)
		Axpy(a, x, y0)
		Axpy(b, x, y0)
		Axpy(a+b, x, y1)
		for i := range y0 {
			if !almostEqual(float64(y0[i]), float64(y1[i]), 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(128)
		x := randVec(rng, n)
		y := randVec(rng, n)
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every unrolled kernel has three code paths (8-wide body, 4-wide
// mid-tail, scalar tail); lengths 0..24 exercise all residues of both
// unroll widths, and the unrolls must not change a single bit relative
// to the plain scalar loop.
func TestUnrollTailsBitwiseMatchScalar(t *testing.T) {
	rng := xrand.New(97)
	const a = 1.37
	for n := 0; n <= 24; n++ {
		x := randVec(rng, n)
		y := randVec(rng, n)

		wantAxpy := append([]float32(nil), y...)
		for i := range wantAxpy {
			wantAxpy[i] += a * x[i]
		}
		gotAxpy := append([]float32(nil), y...)
		Axpy(a, x, gotAxpy)

		wantAdd := append([]float32(nil), y...)
		for i := range wantAdd {
			wantAdd[i] += x[i]
		}
		gotAdd := append([]float32(nil), y...)
		Add(x, gotAdd)

		wantScal := append([]float32(nil), x...)
		for i := range wantScal {
			wantScal[i] *= a
		}
		gotScal := append([]float32(nil), x...)
		Scal(a, gotScal)

		for i := 0; i < n; i++ {
			if math.Float32bits(gotAxpy[i]) != math.Float32bits(wantAxpy[i]) {
				t.Fatalf("n=%d Axpy[%d]: %v != %v", n, i, gotAxpy[i], wantAxpy[i])
			}
			if math.Float32bits(gotAdd[i]) != math.Float32bits(wantAdd[i]) {
				t.Fatalf("n=%d Add[%d]: %v != %v", n, i, gotAdd[i], wantAdd[i])
			}
			if math.Float32bits(gotScal[i]) != math.Float32bits(wantScal[i]) {
				t.Fatalf("n=%d Scal[%d]: %v != %v", n, i, gotScal[i], wantScal[i])
			}
		}
	}
}
