package oracle

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/xrand"
)

func TestULPDiff32(t *testing.T) {
	cases := []struct {
		a, b float32
		want int64
	}{
		{1, 1, 0},
		{0, float32(math.Copysign(0, -1)), 0},
		{1, math.Nextafter32(1, 2), 1},
		{1, math.Nextafter32(1, 0), 1},
		{-1, math.Nextafter32(-1, -2), 1},
		{float32(math.NaN()), 1, math.MaxInt64},
		{1, float32(math.NaN()), math.MaxInt64},
	}
	for _, c := range cases {
		if got := ULPDiff32(c.a, c.b); got != c.want {
			t.Errorf("ULPDiff32(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Crossing the sign boundary: −ε to +ε is two subnormal steps.
	eps := math.Float32frombits(1) // smallest positive subnormal
	if got := ULPDiff32(-eps, eps); got != 2 {
		t.Errorf("ULPDiff32(-min, +min) = %d, want 2", got)
	}
}

func TestToleranceContains(t *testing.T) {
	tol := Tolerance{Abs: 1e-6, Rel: 1e-5, ULP: 4}
	cases := []struct {
		name      string
		got, want float32
		ok        bool
	}{
		{"exact", 3.5, 3.5, true},
		{"abs floor near zero", 5e-7, 0, true},
		{"rel on large values", 1000, 1000.005, true},
		{"ulp tie", 1, math.Nextafter32(1, 2), true},
		{"clearly off", 1, 1.1, false},
		{"nan never agrees", float32(math.NaN()), float32(math.NaN()), false},
	}
	for _, c := range cases {
		if got := tol.Contains(c.got, c.want); got != c.ok {
			t.Errorf("%s: Contains(%v, %v) = %v, want %v", c.name, c.got, c.want, got, c.ok)
		}
	}
	// Zero-valued tolerance accepts only bitwise equality.
	strict := Tolerance{}
	if !strict.Contains(2, 2) || strict.Contains(2, math.Nextafter32(2, 3)) {
		t.Error("zero tolerance must mean bitwise equality")
	}
}

func TestCompareReportsWorstDivergence(t *testing.T) {
	want := dense.FromRows([][]float32{{1, 2}, {3, 4}})
	got := dense.FromRows([][]float32{{1, 2.001}, {3, 8}})
	d := Compare(got, want, Default())
	if d == nil {
		t.Fatal("expected a divergence")
	}
	if d.Row != 1 || d.Col != 1 {
		t.Fatalf("worst divergence at (%d,%d), want (1,1)", d.Row, d.Col)
	}
	if d.Got != 8 || d.Want != 4 {
		t.Fatalf("divergence values %v/%v, want 8/4", d.Got, d.Want)
	}
	if d.Error() == "" {
		t.Fatal("empty error string")
	}
	if Compare(want, want.Clone(), Tolerance{}) != nil {
		t.Fatal("identical matrices must not diverge")
	}
}

func TestCompareVec(t *testing.T) {
	if d := CompareVec([]float32{1, 2}, []float32{1, 2}, Tolerance{}); d != nil {
		t.Fatalf("unexpected divergence %v", d)
	}
	d := CompareVec([]float32{1, 9}, []float32{1, 2}, Default())
	if d == nil || d.Row != 1 || d.Col != -1 {
		t.Fatalf("divergence = %+v, want row 1 col -1", d)
	}
}

func TestGeneratorsProduceValidDeterministicMatrices(t *testing.T) {
	for _, g := range Generators() {
		for _, n := range []int{1, 8, 33} {
			a := g.Gen(n, 7)
			if a.Rows != n || a.Cols != n {
				t.Fatalf("%s(n=%d): shape %d×%d", g.Name, n, a.Rows, a.Cols)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s(n=%d): invalid matrix: %v", g.Name, n, err)
			}
			if !a.IsBinary() {
				t.Fatalf("%s(n=%d): not binary", g.Name, n)
			}
			again := g.Gen(n, 7)
			if again.NNZ() != a.NNZ() {
				t.Fatalf("%s(n=%d): not deterministic (%d vs %d nnz)", g.Name, n, a.NNZ(), again.NNZ())
			}
			for k := range a.ColIdx {
				if a.ColIdx[k] != again.ColIdx[k] {
					t.Fatalf("%s(n=%d): not deterministic at nz %d", g.Name, n, k)
				}
			}
		}
	}
	if _, err := GetGenerator("nope"); err == nil {
		t.Fatal("GetGenerator must reject unknown names")
	}
	if g, err := GetGenerator("hub"); err != nil || g.Name != "hub" {
		t.Fatalf("GetGenerator(hub) = %v, %v", g.Name, err)
	}
}

func TestGeneratorShapesAreAdversarial(t *testing.T) {
	n := 64
	empty := genEmptyRows(n, 3)
	zeroRows := 0
	for i := 0; i < n; i++ {
		if empty.RowNNZ(i) == 0 {
			zeroRows++
		}
	}
	if zeroRows == 0 {
		t.Error("emptyrows produced no empty rows")
	}
	hub := genHub(n, 3)
	if hub.RowNNZ(0) != n {
		t.Errorf("hub row has %d entries, want %d", hub.RowNNZ(0), n)
	}
	if z := genAllZero(n, 3); z.NNZ() != 0 {
		t.Errorf("allzero has %d nonzeros", z.NNZ())
	}
	dup := genDupRows(n, 3)
	exactDups := 0
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			a, b := dup.RowCols(i), dup.RowCols(j)
			if len(a) != len(b) {
				continue
			}
			same := true
			for k := range a {
				if a[k] != b[k] {
					same = false
					break
				}
			}
			if same {
				exactDups++
				break
			}
		}
	}
	if exactDups == 0 {
		t.Error("duprows produced no duplicate rows")
	}
}

// The two independent oracles must agree with each other bitwise (both
// accumulate the same nonzeros in the same order in float64) and with
// the production SpMM kernel within the paper's tolerance.
func TestReferenceOraclesAgree(t *testing.T) {
	rng := xrand.New(11)
	for _, g := range Generators() {
		a := g.Gen(40, 5)
		b := dense.New(40, 9)
		rng.FillUniform(b.Data)
		d := DenseProduct(a, b)
		c := CSRProduct(a, b)
		if !d.Equal(c) {
			t.Fatalf("%s: dense and CSR oracles disagree: %v", g.Name, Compare(d, c, Tolerance{}))
		}
		if div := Compare(kernels.SpMM(a, b), c, Default()); div != nil {
			t.Fatalf("%s: production SpMM diverges from oracle: %v", g.Name, div)
		}
	}
}
