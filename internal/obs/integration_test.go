package obs_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// TestConcurrentMulToRecordsConsistently drives the real instrumented
// pipeline from many goroutines at once — the -race half of the obs
// acceptance criteria. MulTo must record exactly one update span and
// one spmm span per call, with no torn counts, and never the fused
// stage, which nothing emits any more.
func TestConcurrentMulToRecordsConsistently(t *testing.T) {
	a := synth.SBMGroups(300, 20, 0.8, 0.3, 7)
	m, _, err := cbm.Compress(a, cbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	b := dense.New(a.Rows, 8)
	rng.FillUniform(b.Data)

	const goroutines, iters = 6, 10
	const calls = goroutines * iters
	obs.Reset()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			c := dense.New(a.Rows, 8)
			for i := 0; i < iters; i++ {
				m.MulTo(c, b, 2)
			}
		}()
	}
	wg.Wait()
	if v := obs.CounterValue(obs.CounterMulCalls); v != calls {
		t.Fatalf("mul_calls = %d, want %d", v, calls)
	}
	if count, nanos := obs.StageTotals(obs.StageUpdate); count != calls || nanos <= 0 {
		t.Fatalf("update stage count=%d nanos=%d, want count=%d and nanos>0", count, nanos, calls)
	}
	if count, nanos := obs.StageTotals(obs.StageSpMM); count != calls || nanos <= 0 {
		t.Fatalf("spmm stage count=%d nanos=%d, want count=%d and nanos>0", count, nanos, calls)
	}
	if count, _ := obs.StageTotals(obs.StageFused); count != 0 {
		t.Fatalf("fused stage count=%d, want 0", count)
	}
}

// TestDisableLeavesResultsBitwiseIdentical pins the zero-interference
// contract: instrumentation on vs. off must not change a single output
// bit of the kernels it wraps.
func TestDisableLeavesResultsBitwiseIdentical(t *testing.T) {
	a := synth.HolmeKim(400, 3, 0.3, 9)
	m, _, err := cbm.Compress(a, cbm.Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(21)
	b := dense.New(a.Rows, 16)
	rng.FillUniform(b.Data)

	obs.Enable()
	cOn := dense.New(a.Rows, 16)
	m.MulTo(cOn, b, 4)

	obs.Disable()
	defer obs.Enable()
	cOff := dense.New(a.Rows, 16)
	m.MulTo(cOff, b, 4)

	if len(cOn.Data) != len(cOff.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(cOn.Data), len(cOff.Data))
	}
	for i := range cOn.Data {
		if math.Float32bits(cOn.Data[i]) != math.Float32bits(cOff.Data[i]) {
			t.Fatalf("bitwise divergence at %d: %x vs %x",
				i, math.Float32bits(cOn.Data[i]), math.Float32bits(cOff.Data[i]))
		}
	}
}
