package gnn

import (
	"math"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Linear is a dense layer Y = X·W (+ bias).
type Linear struct {
	In, Out int
	W       *dense.Matrix // In×Out
	Bias    []float32     // nil = no bias
}

// NewLinear returns a Glorot-initialized linear layer.
func NewLinear(in, out int, bias bool, rng *xrand.RNG) *Linear {
	l := &Linear{In: in, Out: out, W: dense.New(in, out)}
	scale := float32(math.Sqrt(6.0 / float64(in+out)))
	for i := range l.W.Data {
		l.W.Data[i] = (2*rng.Float32() - 1) * scale
	}
	if bias {
		l.Bias = make([]float32, out)
	}
	return l
}

// Forward computes X·W (+ bias) with the given thread count.
func (l *Linear) Forward(x *dense.Matrix, threads int) *dense.Matrix {
	y := dense.New(x.Rows, l.Out)
	l.ForwardTo(exec.New(threads), y, x)
	return y
}

// ForwardTo computes out = X·W (+ bias) into the caller-owned out
// buffer (x.Rows×Out, overwritten). Operation order is identical to
// Forward, so results are bitwise equal.
//
//cbm:hotpath
func (l *Linear) ForwardTo(ctx *exec.Ctx, out, x *dense.Matrix) {
	l.forwardTo(ctx, out, x, false)
}

// forwardTo is ForwardTo on input ReLU(x) when reluIn is set: the
// activation is folded into the GEMM's load of x (dense.MulReLUTo), so
// x is left unchanged and the result is bitwise equal to ReLU'ing a
// copy of x first.
//
//cbm:hotpath
func (l *Linear) forwardTo(ctx *exec.Ctx, out, x *dense.Matrix, reluIn bool) {
	sp := ctx.Begin(obs.StageGemm)
	if reluIn {
		dense.MulReLUTo(out, x, l.W, ctx.Threads())
	} else {
		dense.MulTo(out, x, l.W, ctx.Threads())
	}
	sp.End()
	if l.Bias != nil {
		out.AddBiasRow(l.Bias)
	}
}

// GCNConv is one graph-convolution layer: H = Â·(X·W), the
// message-passing step of Kipf & Welling's GCN. The normalized
// adjacency Â lives in the backend.
type GCNConv struct {
	Lin *Linear
}

// NewGCNConv returns a GCN layer with in→out feature widths.
func NewGCNConv(in, out int, rng *xrand.RNG) *GCNConv {
	return &GCNConv{Lin: NewLinear(in, out, false, rng)}
}

// Forward computes Â·(X·W). The dense product runs first so the
// sparse product sees the narrower matrix — the paper's Eq. 1
// evaluation order (two dense-dense + two sparse-dense products for a
// two-layer net).
func (c *GCNConv) Forward(a Adjacency, x *dense.Matrix, threads int) *dense.Matrix {
	out := dense.New(a.Rows(), c.Lin.Out)
	c.ForwardTo(exec.New(threads), out, a, x)
	return out
}

// ForwardTo computes out = Â·(X·W) into the caller-owned out buffer
// (n×Out), borrowing the X·W intermediate from the context's arena.
//
//cbm:hotpath
func (c *GCNConv) ForwardTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	c.forwardTo(ctx, out, a, x, false)
}

// forwardTo is ForwardTo on input ReLU(x) when reluIn is set, with
// the activation folded into the dense product (Linear.forwardTo).
//
//cbm:hotpath
func (c *GCNConv) forwardTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix, reluIn bool) {
	sp := ctx.Begin(obs.StageLayer)
	ctx.Inc(obs.CounterLayerForwards)
	xw := ctx.Borrow(x.Rows, c.Lin.Out)
	c.Lin.forwardTo(ctx, xw, x, reluIn)
	a.MulToCtx(ctx, out, xw)
	ctx.Release(xw)
	sp.End()
}

// GINConv is a Graph Isomorphism Network layer:
// H = MLP((1+ε)·X + A·X), with a single-hidden-layer MLP.
type GINConv struct {
	Eps  float32
	Lin1 *Linear
	Lin2 *Linear
}

// NewGINConv returns a GIN layer with an in→hidden→out MLP.
func NewGINConv(in, hidden, out int, eps float32, rng *xrand.RNG) *GINConv {
	return &GINConv{
		Eps:  eps,
		Lin1: NewLinear(in, hidden, true, rng),
		Lin2: NewLinear(hidden, out, true, rng),
	}
}

// Forward computes the GIN aggregation followed by the MLP.
func (c *GINConv) Forward(a Adjacency, x *dense.Matrix, threads int) *dense.Matrix {
	out := dense.New(a.Rows(), c.Lin2.Out)
	c.ForwardTo(exec.New(threads), out, a, x)
	return out
}

// ForwardTo computes the GIN layer into the caller-owned out buffer
// (n×Lin2.Out). Per-element operation order — including the
// copy-then-scale of the (1+ε)·X term — replicates Forward's exactly,
// so results are bitwise equal.
//
//cbm:hotpath
func (c *GINConv) ForwardTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	sp := ctx.Begin(obs.StageLayer)
	ctx.Inc(obs.CounterLayerForwards)
	agg := ctx.Borrow(a.Rows(), x.Cols)
	a.MulToCtx(ctx, agg, x)
	// agg += (1+eps)·x
	scaled := ctx.Borrow(x.Rows, x.Cols)
	scaled.CopyFrom(x).Scale(1 + c.Eps)
	agg.Add(scaled)
	ctx.Release(scaled)
	h := ctx.Borrow(x.Rows, c.Lin1.Out)
	c.Lin1.ForwardTo(ctx, h, agg)
	ctx.Release(agg)
	h.ReLU()
	c.Lin2.ForwardTo(ctx, out, h)
	ctx.Release(h)
	sp.End()
}

// SAGEConv is a GraphSAGE layer with sum aggregation:
// H = ReLU(X·W_self + (A·X)·W_neigh).
type SAGEConv struct {
	Self  *Linear
	Neigh *Linear
}

// NewSAGEConv returns a GraphSAGE layer with in→out feature widths.
func NewSAGEConv(in, out int, rng *xrand.RNG) *SAGEConv {
	return &SAGEConv{
		Self:  NewLinear(in, out, true, rng),
		Neigh: NewLinear(in, out, false, rng),
	}
}

// Forward computes the GraphSAGE update.
func (c *SAGEConv) Forward(a Adjacency, x *dense.Matrix, threads int) *dense.Matrix {
	out := dense.New(a.Rows(), c.Self.Out)
	c.ForwardTo(exec.New(threads), out, a, x)
	return out
}

// ForwardTo computes the GraphSAGE update into the caller-owned out
// buffer (n×Out). Operation order matches Forward, so results are
// bitwise equal.
//
//cbm:hotpath
func (c *SAGEConv) ForwardTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	sp := ctx.Begin(obs.StageLayer)
	ctx.Inc(obs.CounterLayerForwards)
	agg := ctx.Borrow(a.Rows(), x.Cols)
	a.MulToCtx(ctx, agg, x)
	c.Self.ForwardTo(ctx, out, x)
	hn := ctx.Borrow(a.Rows(), c.Neigh.Out)
	c.Neigh.ForwardTo(ctx, hn, agg)
	ctx.Release(agg)
	out.Add(hn)
	ctx.Release(hn)
	out.ReLU()
	sp.End()
}

// MeanReadout pools node embeddings into one vector per graph of a
// block-diagonal batch: offsets is the boundary array BlockDiag
// returns (len = graphs+1). The result row g is the mean of z's rows
// [offsets[g], offsets[g+1]) — the standard readout of
// graph-classification GNNs (the paper's Sec. II task list).
func MeanReadout(z *dense.Matrix, offsets []int32) *dense.Matrix {
	graphs := len(offsets) - 1
	out := dense.New(graphs, z.Cols)
	for g := 0; g < graphs; g++ {
		lo, hi := int(offsets[g]), int(offsets[g+1])
		row := out.Row(g)
		for i := lo; i < hi; i++ {
			blas.Add(z.Row(i), row)
		}
		if hi > lo {
			blas.Scal(1/float32(hi-lo), row)
		}
	}
	return out
}
