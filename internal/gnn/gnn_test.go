package gnn

import (
	"math"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func randomFeatures(rng *xrand.RNG, rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	rng.FillUniform(m.Data)
	return m
}

func testBackends(t *testing.T, seed uint64, n int) (Adjacency, Adjacency) {
	t.Helper()
	a := synth.SBMGroups(n, 20, 0.7, 0.5, seed)
	csr, err := NewCSRBackend(a)
	if err != nil {
		t.Fatal(err)
	}
	cbmB, _, err := NewCBMBackend(a, cbm.Options{Alpha: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return csr, cbmB
}

func TestBackendsAgreeOnRawProduct(t *testing.T) {
	csr, cbmB := testBackends(t, 1, 200)
	rng := xrand.New(2)
	b := randomFeatures(rng, csr.Rows(), 16)
	c1 := dense.New(csr.Rows(), 16)
	c2 := dense.New(csr.Rows(), 16)
	ctx := exec.New(2)
	csr.MulToCtx(ctx, c1, b)
	cbmB.MulToCtx(ctx, c2, b)
	if d := dense.MaxRelDiff(c1, c2, 1); d > 1e-4 {
		t.Fatalf("backends disagree: rel diff %v", d)
	}
}

// The CSR backend's spmm stage must reach the context's sink, as the
// CBM backend's stages do, so a recorder scoped to a context sees the
// aggregation of either backend.
func TestCSRMulToCtxReportsToCtxSink(t *testing.T) {
	csr, _ := testBackends(t, 5, 120)
	b := randomFeatures(xrand.New(6), csr.Rows(), 8)
	c := dense.New(csr.Rows(), 8)
	for _, threads := range []int{1, 2} {
		rec := obs.NewRecorder()
		ctx := exec.NewWithSink(threads, rec)
		for call := int64(1); call <= 3; call++ {
			csr.MulToCtx(ctx, c, b)
			if n, _ := rec.StageTotals(obs.StageSpMM); n != call {
				t.Fatalf("threads=%d call %d: recorder saw %d spmm spans, want %d", threads, call, n, call)
			}
			if n := rec.CounterValue(obs.CounterSpMMCalls); n != call {
				t.Fatalf("threads=%d call %d: recorder saw %d spmm calls, want %d", threads, call, n, call)
			}
		}
	}
}

func TestGCNInferenceBackendEquivalence(t *testing.T) {
	csr, cbmB := testBackends(t, 3, 240)
	rng := xrand.New(4)
	x := randomFeatures(rng, csr.Rows(), 32)
	model := NewGCN2(32, 16, 7, 99)
	z1 := model.Infer(csr, x, 2)
	z2 := model.Infer(cbmB, x, 2)
	if d := dense.MaxRelDiff(z1, z2, 1); d > 1e-4 {
		t.Fatalf("GCN outputs differ: rel diff %v", d)
	}
	if z1.Rows != csr.Rows() || z1.Cols != 7 {
		t.Fatalf("output shape %d×%d", z1.Rows, z1.Cols)
	}
}

func TestGCNInferenceThreadInvariance(t *testing.T) {
	csr, _ := testBackends(t, 5, 150)
	rng := xrand.New(6)
	x := randomFeatures(rng, csr.Rows(), 8)
	model := NewGCN2(8, 8, 3, 1)
	z1 := model.Infer(csr, x, 1)
	z8 := model.Infer(csr, x, 8)
	if d := dense.MaxRelDiff(z1, z8, 1); d > 1e-5 {
		t.Fatalf("thread count changed result: %v", d)
	}
}

func TestGINAndSAGEBackendEquivalence(t *testing.T) {
	csr, cbmB := testBackends(t, 9, 160)
	rng := xrand.New(10)
	x := randomFeatures(rng, csr.Rows(), 10)
	gin := NewGINConv(10, 12, 5, 0.1, rng)
	sage := NewSAGEConv(10, 6, rng)
	if d := dense.MaxRelDiff(gin.Forward(csr, x, 2), gin.Forward(cbmB, x, 2), 1); d > 1e-4 {
		t.Fatalf("GIN differs: %v", d)
	}
	if d := dense.MaxRelDiff(sage.Forward(csr, x, 2), sage.Forward(cbmB, x, 2), 1); d > 1e-4 {
		t.Fatalf("SAGE differs: %v", d)
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over k classes → loss = ln k, grad rows sum to 0.
	z := dense.New(2, 4)
	labels := []int{1, 3}
	grad := dense.New(2, 4)
	loss := SoftmaxCrossEntropy(z, labels, nil, grad)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln 4 = %v", loss, math.Log(4))
	}
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += float64(grad.At(i, j))
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyGradientCheck(t *testing.T) {
	rng := xrand.New(11)
	z := randomFeatures(rng, 3, 5)
	labels := []int{2, 0, 4}
	grad := dense.New(3, 5)
	loss := SoftmaxCrossEntropy(z, labels, nil, grad)
	const eps = 1e-3
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			orig := z.At(i, j)
			z.Set(i, j, orig+eps)
			lp := SoftmaxCrossEntropy(z, labels, nil, dense.New(3, 5))
			z.Set(i, j, orig-eps)
			lm := SoftmaxCrossEntropy(z, labels, nil, dense.New(3, 5))
			z.Set(i, j, orig)
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(grad.At(i, j))
			if math.Abs(numeric-analytic) > 1e-3 {
				t.Fatalf("grad(%d,%d): numeric %v vs analytic %v (loss %v)", i, j, numeric, analytic, loss)
			}
		}
	}
}

func TestSoftmaxCrossEntropyMask(t *testing.T) {
	z := dense.New(3, 2)
	z.Set(0, 0, 100) // confident & correct
	z.Set(1, 1, -100)
	labels := []int{0, 0, 1}
	mask := []bool{true, false, false}
	grad := dense.New(3, 2)
	loss := SoftmaxCrossEntropy(z, labels, mask, grad)
	if loss > 1e-6 {
		t.Fatalf("masked loss = %v, want ≈ 0", loss)
	}
	for j := 0; j < 2; j++ {
		if grad.At(1, j) != 0 || grad.At(2, j) != 0 {
			t.Fatal("gradient leaked into masked rows")
		}
	}
}

func TestAccuracy(t *testing.T) {
	z := dense.FromRows([][]float32{{1, 0}, {0, 1}, {1, 0}})
	labels := []int{0, 1, 1}
	if acc := Accuracy(z, labels, nil); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v", acc)
	}
	if acc := Accuracy(z, labels, []bool{true, true, false}); acc != 1 {
		t.Fatalf("masked accuracy = %v", acc)
	}
	if acc := Accuracy(z, labels, []bool{false, false, false}); acc != 0 {
		t.Fatalf("empty-mask accuracy = %v", acc)
	}
}

// Training on a linearly separable community task must drive the loss
// down and reach high accuracy; CSR and CBM backends must agree.
func TestTrainLearnsCommunities(t *testing.T) {
	n, groups := 200, 10
	a := synth.SBMGroups(n, n/groups, 0.8, 0.2, 21)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i / (n / groups)) % 4
	}
	// features: noisy one-hot of the label
	rng := xrand.New(22)
	x := dense.New(n, 8)
	for i := 0; i < n; i++ {
		x.Set(i, labels[i], 1)
		for j := 0; j < 8; j++ {
			x.Set(i, j, x.At(i, j)+0.1*rng.Float32())
		}
	}
	cfg := TrainConfig{LR: 0.5, Epochs: 60, Threads: 2}

	csr, err := NewCSRBackend(a)
	if err != nil {
		t.Fatal(err)
	}
	model := NewGCN2(8, 16, 4, 7)
	res := model.Train(csr, x, labels, nil, cfg)
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v → %v", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy = %v, want ≥ 0.9", res.Accuracy)
	}

	cbmB, _, err := NewCBMBackend(a, cbm.Options{Alpha: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	model2 := NewGCN2(8, 16, 4, 7) // same init seed → same weights
	res2 := model2.Train(cbmB, x, labels, nil, cfg)
	if math.Abs(res2.Accuracy-res.Accuracy) > 0.05 {
		t.Fatalf("backend accuracy gap: CSR %v vs CBM %v", res.Accuracy, res2.Accuracy)
	}
	for e := range res.Losses {
		if math.Abs(res.Losses[e]-res2.Losses[e]) > 1e-2*(1+math.Abs(res.Losses[e])) {
			t.Fatalf("epoch %d: loss diverged CSR %v vs CBM %v", e, res.Losses[e], res2.Losses[e])
		}
	}
}

func TestBackendFootprints(t *testing.T) {
	csr, cbmB := testBackends(t, 30, 300)
	if csr.FootprintBytes() <= 0 || cbmB.FootprintBytes() <= 0 {
		t.Fatal("footprints must be positive")
	}
}

func TestNewBackendsRejectBadInput(t *testing.T) {
	bad := dense.New(2, 3)
	_ = bad
	if _, err := NewCSRBackend(synth.ErdosRenyi(0, 0, 1)); err != nil {
		// empty graph is fine
		t.Fatalf("empty graph rejected: %v", err)
	}
}

func TestMeanReadout(t *testing.T) {
	z := dense.FromRows([][]float32{
		{1, 2}, {3, 4}, // graph 0
		{10, 20}, {30, 40}, {20, 30}, // graph 1
	})
	offsets := []int32{0, 2, 5}
	out := MeanReadout(z, offsets)
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("shape %d×%d", out.Rows, out.Cols)
	}
	if out.At(0, 0) != 2 || out.At(0, 1) != 3 {
		t.Fatalf("graph 0 readout %v", out.Row(0))
	}
	if out.At(1, 0) != 20 || out.At(1, 1) != 30 {
		t.Fatalf("graph 1 readout %v", out.Row(1))
	}
	// empty graph block: no NaN
	out2 := MeanReadout(z, []int32{0, 0, 5})
	if out2.At(0, 0) != 0 {
		t.Fatalf("empty block readout %v", out2.Row(0))
	}
}

// TestTrainEpochZeroAlloc pins the training loop's per-epoch buffers
// as allocated once, before the first epoch: at 1 thread, ten more
// epochs must cost no allocation beyond the run's fixed setup.
func TestTrainEpochZeroAlloc(t *testing.T) {
	a := synth.SBMGroups(120, 12, 0.8, 0.2, 5)
	x := dense.New(a.Rows, 8)
	xrand.New(6).FillUniform(x.Data)
	labels := make([]int, a.Rows)
	for i := range labels {
		labels[i] = i % 4
	}
	backend, _, err := NewCBMBackend(a, cbm.Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := NewGCN2(8, 16, 4, 7)
	allocs := func(epochs int) float64 {
		cfg := TrainConfig{LR: 0.01, Epochs: epochs, Threads: 1}
		return testing.AllocsPerRun(5, func() { model.Train(backend, x, labels, nil, cfg) })
	}
	if perEpoch := (allocs(11) - allocs(1)) / 10; perEpoch > 0 {
		t.Fatalf("Train allocates %.1f times per epoch, want 0", perEpoch)
	}
}
