package gnn

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// bitwiseEqual reports whether two matrices hold exactly the same
// bits — the contract every ForwardTo/InferTo variant makes against
// its allocating counterpart (same operation order, same kernels).
func bitwiseEqual(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

func TestLinearForwardToBitwise(t *testing.T) {
	rng := xrand.New(40)
	lin := NewLinear(12, 7, true, rng)
	x := randomFeatures(rng, 50, 12)
	for _, threads := range []int{1, 3} {
		want := lin.Forward(x, threads)
		ctx := exec.New(threads)
		got := ctx.Borrow(x.Rows, lin.Out)
		lin.ForwardTo(ctx, got, x)
		if !bitwiseEqual(want, got) {
			t.Fatalf("threads=%d: ForwardTo differs from Forward", threads)
		}
		ctx.Release(got)
	}
}

func TestLayerForwardToBitwise(t *testing.T) {
	csr, cbmB := testBackends(t, 41, 180)
	rng := xrand.New(42)
	x := randomFeatures(rng, csr.Rows(), 10)
	gcn := NewGCNConv(10, 8, rng)
	gin := NewGINConv(10, 12, 5, 0.1, rng)
	sage := NewSAGEConv(10, 6, rng)

	type layer struct {
		name string
		out  int
		fwd  func(a Adjacency, threads int) *dense.Matrix
		fto  func(ctx *exec.Ctx, out *dense.Matrix, a Adjacency)
	}
	layers := []layer{
		{"gcn", 8,
			func(a Adjacency, th int) *dense.Matrix { return gcn.Forward(a, x, th) },
			func(ctx *exec.Ctx, out *dense.Matrix, a Adjacency) { gcn.ForwardTo(ctx, out, a, x) }},
		{"gin", 5,
			func(a Adjacency, th int) *dense.Matrix { return gin.Forward(a, x, th) },
			func(ctx *exec.Ctx, out *dense.Matrix, a Adjacency) { gin.ForwardTo(ctx, out, a, x) }},
		{"sage", 6,
			func(a Adjacency, th int) *dense.Matrix { return sage.Forward(a, x, th) },
			func(ctx *exec.Ctx, out *dense.Matrix, a Adjacency) { sage.ForwardTo(ctx, out, a, x) }},
	}
	for _, l := range layers {
		for _, a := range []Adjacency{csr, cbmB} {
			for _, threads := range []int{1, 2} {
				want := l.fwd(a, threads)
				ctx := exec.New(threads)
				got := dense.New(a.Rows(), l.out)
				l.fto(ctx, got, a)
				if !bitwiseEqual(want, got) {
					t.Fatalf("%s threads=%d backend=%T: ForwardTo differs from Forward", l.name, threads, a)
				}
				if n := ctx.Arena().Outstanding(); n != 0 {
					t.Fatalf("%s leaked %d arena buffers", l.name, n)
				}
			}
		}
	}
}

func TestGCN2InferToBitwise(t *testing.T) {
	csr, cbmB := testBackends(t, 43, 200)
	rng := xrand.New(44)
	x := randomFeatures(rng, csr.Rows(), 16)
	model := NewGCN2(16, 12, 5, 45)
	for _, a := range []Adjacency{csr, cbmB} {
		for _, threads := range []int{1, 2} {
			want := model.Infer(a, x, threads)
			ctx := exec.New(threads)
			got := dense.New(a.Rows(), model.OutDim())
			model.InferTo(ctx, got, a, x)
			if !bitwiseEqual(want, got) {
				t.Fatalf("threads=%d backend=%T: InferTo differs from Infer", threads, a)
			}
			if n := ctx.Arena().Outstanding(); n != 0 {
				t.Fatalf("InferTo leaked %d arena buffers", n)
			}
		}
	}
}

// TestInferStackToBitwise checks the layer loop behind GCN2.InferTo on
// a three-layer stack, so the arena ping-pong releases an intermediate
// while another is live: its output must equal layer-by-layer Forward
// with ReLU between, bit for bit, and leave no buffer borrowed.
func TestInferStackToBitwise(t *testing.T) {
	csr, cbmB := testBackends(t, 46, 160)
	rng := xrand.New(47)
	layers := []*GCNConv{
		NewGCNConv(9, 14, rng),
		NewGCNConv(14, 14, rng),
		NewGCNConv(14, 3, rng),
	}
	x := randomFeatures(rng, csr.Rows(), 9)
	for _, a := range []Adjacency{csr, cbmB} {
		want := x
		for i, l := range layers {
			want = l.Forward(a, want, 2)
			if i != len(layers)-1 {
				want.ReLU()
			}
		}
		ctx := exec.New(2)
		got := dense.New(a.Rows(), 3)
		inferStackTo(ctx, got, layers, a, x)
		if !bitwiseEqual(want, got) {
			t.Fatalf("backend %T: inferStackTo differs from layer-by-layer Forward", a)
		}
		if n := ctx.Arena().Outstanding(); n != 0 {
			t.Fatalf("inferStackTo leaked %d arena buffers", n)
		}
	}
}

func TestInferStackToShapeMismatchPanics(t *testing.T) {
	csr, _ := testBackends(t, 53, 60)
	rng := xrand.New(54)
	x := randomFeatures(rng, csr.Rows(), 5)
	layers := []*GCNConv{NewGCNConv(5, 4, rng)}
	ctx := exec.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shaped output accepted")
		}
	}()
	inferStackTo(ctx, dense.New(csr.Rows(), 9), layers, csr, x)
}

// TestInferToSteadyStateZeroAlloc pins the refactor's core promise at
// the model level: with a warmed arena and one thread, a full GCN2
// forward pass allocates nothing.
func TestInferToSteadyStateZeroAlloc(t *testing.T) {
	csr, cbmB := testBackends(t, 55, 150)
	rng := xrand.New(56)
	x := randomFeatures(rng, csr.Rows(), 12)
	model := NewGCN2(12, 10, 4, 57)
	for _, a := range []Adjacency{csr, cbmB} {
		ctx := exec.New(1)
		out := dense.New(a.Rows(), model.OutDim())
		model.InferTo(ctx, out, a, x) // warm the arena classes
		if allocs := testing.AllocsPerRun(20, func() {
			model.InferTo(ctx, out, a, x)
		}); allocs != 0 {
			t.Fatalf("backend %T: steady-state InferTo allocates %v times per pass", a, allocs)
		}
	}
}

// TestForwardGemmActivationSpans checks the per-stage attribution a
// recorder sink sees: one gemm span per dense X·W and one activation
// span per ReLU between layers, on the solo, stack and batched paths.
func TestForwardGemmActivationSpans(t *testing.T) {
	csr, cbmB := testBackends(t, 58, 120)
	rng := xrand.New(59)
	x := randomFeatures(rng, csr.Rows(), 8)
	model := NewGCN2(8, 6, 3, 60)
	stack := []*GCNConv{NewGCNConv(8, 6, rng), NewGCNConv(6, 6, rng), NewGCNConv(6, 3, rng)}
	for _, a := range []Adjacency{csr, cbmB} {
		cases := []struct {
			name             string
			run              func(ctx *exec.Ctx)
			gemm, activation int64
		}{
			{"GCN2.InferTo", func(ctx *exec.Ctx) {
				model.InferTo(ctx, dense.New(a.Rows(), 3), a, x)
			}, 2, 1},
			{"inferStackTo", func(ctx *exec.Ctx) {
				inferStackTo(ctx, dense.New(a.Rows(), 3), stack, a, x)
			}, 3, 2},
			{"GCN2.InferBatchTo", func(ctx *exec.Ctx) {
				outs := []*dense.Matrix{dense.New(a.Rows(), 3), dense.New(a.Rows(), 3)}
				model.InferBatchTo(ctx, outs, a, []*dense.Matrix{x, x})
			}, 4, 1},
		}
		for _, tc := range cases {
			rec := obs.NewRecorder()
			tc.run(exec.NewWithSink(1, rec))
			gemm, _ := rec.StageTotals(obs.StageGemm)
			act, _ := rec.StageTotals(obs.StageActivation)
			if gemm != tc.gemm || act != tc.activation {
				t.Fatalf("%s backend=%T: %d gemm and %d activation spans, want %d and %d",
					tc.name, a, gemm, act, tc.gemm, tc.activation)
			}
		}
	}
}
