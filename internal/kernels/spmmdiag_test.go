package kernels

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// SpMMDiagTo must equal an explicit diag(left)·S·diag(right) product
// computed densely, for every nil/non-nil diagonal combination.
func TestSpMMDiagMatchesDense(t *testing.T) {
	rng := xrand.New(11)
	s := randomCSR(rng, 41, 29, 0.15, true)
	b := randomDense(rng, 29, 7)
	left := make([]float32, s.Rows)
	right := make([]float32, s.Cols)
	for i := range left {
		left[i] = 0.25 + rng.Float32()
	}
	for j := range right {
		right[j] = 0.25 + rng.Float32()
	}
	cases := []struct {
		name        string
		left, right []float32
	}{
		{"identity", nil, nil},
		{"right-only", nil, right},
		{"left-only", left, nil},
		{"both", left, right},
	}
	for _, tc := range cases {
		got := dense.New(s.Rows, b.Cols)
		SpMMDiagTo(got, s, b, tc.left, tc.right, 1, obs.Global)
		// Reference: scale a dense copy of S explicitly, then multiply.
		sd := s.ToDense()
		for i := 0; i < sd.Rows; i++ {
			row := sd.Row(i)
			for j := range row {
				if tc.right != nil {
					row[j] *= tc.right[j]
				}
				if tc.left != nil {
					row[j] *= tc.left[i]
				}
			}
		}
		want := dense.Mul(sd, b)
		for i := range got.Data {
			d := float64(got.Data[i]) - float64(want.Data[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("%s: element %d = %v, want %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// With nil diagonals SpMMDiagTo must be bitwise identical to SpMMTo —
// it is the same per-row accumulation.
func TestSpMMDiagNilDiagsBitwiseSpMM(t *testing.T) {
	rng := xrand.New(13)
	s := randomCSR(rng, 64, 64, 0.1, true)
	b := randomDense(rng, 64, 9)
	want := dense.New(64, 9)
	SpMMTo(want, s, b, 1)
	got := dense.New(64, 9)
	SpMMDiagTo(got, s, b, nil, nil, 1, obs.Global)
	if !got.Equal(want) {
		t.Fatal("SpMMDiagTo(nil, nil) not bitwise equal to SpMMTo")
	}
}

// Thread count must not change a single bit: rows are independent and
// per-row accumulation order is fixed.
func TestSpMMDiagThreadDeterminism(t *testing.T) {
	rng := xrand.New(17)
	s := randomCSR(rng, 257, 257, 0.05, true)
	b := randomDense(rng, 257, 13)
	d := make([]float32, 257)
	for i := range d {
		d[i] = 0.5 + rng.Float32()
	}
	want := dense.New(257, 13)
	SpMMDiagTo(want, s, b, d, d, 1, obs.Global)
	for _, threads := range []int{2, 4, 8} {
		got := dense.New(257, 13)
		SpMMDiagTo(got, s, b, d, d, threads, obs.Global)
		if !got.Equal(want) {
			t.Fatalf("threads=%d: SpMMDiagTo not bitwise stable", threads)
		}
	}
}

// Spans emitted through an explicit recorder sink must be attributed
// to it (and only it), for both the sequential and parallel schedules.
func TestSpMMSinkScoping(t *testing.T) {
	rng := xrand.New(19)
	s := randomCSR(rng, 300, 300, 0.05, true)
	b := randomDense(rng, 300, 5)
	c := dense.New(300, 5)
	rec := obs.NewRecorder()
	other := obs.NewRecorder()
	SpMMDiagTo(c, s, b, nil, nil, 1, rec)
	SpMMDiagTo(c, s, b, nil, nil, 4, rec)
	SpMMDiagTo(c, s, b, nil, nil, 1, rec)
	if n, _ := rec.StageTotals(obs.StageSpMM); n != 3 {
		t.Fatalf("recorder saw %d spmm spans, want 3", n)
	}
	if got := rec.CounterValue(obs.CounterSpMMCalls); got != 3 {
		t.Fatalf("recorder counted %d spmm calls, want 3", got)
	}
	if n, _ := other.StageTotals(obs.StageSpMM); n != 0 {
		t.Fatalf("foreign recorder saw %d spans, want 0", n)
	}
}

// Shape and diagonal-length mismatches must fail loudly.
func TestSpMMDiagPanics(t *testing.T) {
	rng := xrand.New(23)
	s := randomCSR(rng, 8, 8, 0.3, true)
	b := randomDense(rng, 8, 3)
	c := dense.New(8, 3)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("short left", func() {
		SpMMDiagTo(c, s, b, make([]float32, 3), nil, 1, obs.Global)
	})
	expectPanic("short right", func() {
		SpMMDiagTo(c, s, b, nil, make([]float32, 3), 1, obs.Global)
	})
	expectPanic("bad output", func() {
		SpMMDiagTo(dense.New(4, 3), s, b, nil, nil, 1, obs.Global)
	})
}
