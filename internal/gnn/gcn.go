package gnn

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// GCN2 is the paper's evaluation model: a two-layer graph convolutional
// network computing Â·σ(Â·X·W⁰)·W¹ (Eq. 1). Feature widths follow the
// paper's setup: W⁰ ∈ R^{F×H}, W¹ ∈ R^{H×C}.
type GCN2 struct {
	L0, L1 *GCNConv
}

// NewGCN2 builds a two-layer GCN with the given feature widths.
func NewGCN2(inFeatures, hidden, classes int, seed uint64) *GCN2 {
	rng := xrand.New(seed)
	return &GCN2{
		L0: NewGCNConv(inFeatures, hidden, rng),
		L1: NewGCNConv(hidden, classes, rng),
	}
}

// Infer runs the forward pass on backend a with the given thread
// count and returns the output logits (n×classes).
func (g *GCN2) Infer(a Adjacency, x *dense.Matrix, threads int) *dense.Matrix {
	out := dense.New(a.Rows(), g.L1.Lin.Out)
	g.InferTo(exec.New(threads), out, a, x)
	return out
}

// InferTo runs the forward pass into the caller-owned out buffer
// (n×classes), borrowing the hidden layer from the context's arena.
// Operation order is identical to Infer, so results are bitwise equal.
//
//cbm:hotpath
func (g *GCN2) InferTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	layers := [2]*GCNConv{g.L0, g.L1}
	inferStackTo(ctx, out, layers[:], a, x)
}

// InferBatchTo serves several requests in one forward pass with a
// single wide sparse aggregation per layer (BatchModel interface).
// Output i is bitwise identical to InferTo on xs[i] alone.
//
//cbm:hotpath
func (g *GCN2) InferBatchTo(ctx *exec.Ctx, outs []*dense.Matrix, a Adjacency, xs []*dense.Matrix) {
	layers := [2]*GCNConv{g.L0, g.L1}
	inferStackBatchTo(ctx, outs, layers[:], a, xs)
}

// InDim returns the input feature width (Model interface).
func (g *GCN2) InDim() int { return g.L0.Lin.In }

// OutDim returns the output class width (Model interface).
func (g *GCN2) OutDim() int { return g.L1.Lin.Out }

// inferStackTo runs a stack of GCN layers with ReLU between them (none
// after the last) into the caller-owned out buffer (n×lastOut),
// ping-ponging intermediate activations through arena buffers. It is
// the solo forward behind GCN2.InferTo and the batch-of-one case of
// inferStackBatchTo.
//
//cbm:hotpath
func inferStackTo(ctx *exec.Ctx, out *dense.Matrix, layers []*GCNConv, a Adjacency, x *dense.Matrix) {
	if last := layers[len(layers)-1]; out.Rows != a.Rows() || out.Cols != last.Lin.Out {
		panic(fmt.Sprintf("gnn: InferTo output is %d×%d, want %d×%d", out.Rows, out.Cols, a.Rows(), last.Lin.Out))
	}
	sp := ctx.Begin(obs.StageInfer)
	cur := x
	var prev *dense.Matrix // the arena buffer cur points into, if any
	for i, l := range layers {
		dst := out
		if i != len(layers)-1 {
			dst = ctx.Borrow(a.Rows(), l.Lin.Out)
		}
		l.ForwardTo(ctx, dst, a, cur)
		if prev != nil {
			ctx.Release(prev)
			prev = nil
		}
		if i != len(layers)-1 {
			asp := ctx.Begin(obs.StageActivation)
			dst.ReLU()
			asp.End()
			prev = dst
		}
		cur = dst
	}
	sp.End()
}
