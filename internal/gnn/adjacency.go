// Package gnn implements the Graph Neural Network workloads that
// motivate the paper (Sec. II): a two-layer GCN whose inference is
// Â σ(Â X W⁰) W¹ with Â = D^{-1/2}(A+I)D^{-1/2}, plus GIN and
// GraphSAGE message-passing layers (the other architectures Sec. II
// names). The graph side of every layer goes through the Adjacency
// interface, so the same model runs on the CSR baseline or on the CBM
// format and timing differences isolate the format, exactly like the
// paper's PyTorch-extension experiment.
package gnn

import (
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

// Adjacency is a multiplication backend for an n×n (normalized)
// adjacency matrix.
type Adjacency interface {
	// Rows returns n.
	Rows() int
	// MulToCtx computes c = Â·b with the context's thread budget,
	// reporting its stages to the context's sink.
	MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix)
	// FootprintBytes reports the memory the representation occupies.
	FootprintBytes() int64
}

// CSRAdjacency is the baseline backend: Â materialized as one
// value-scaled CSR matrix multiplied with the stock SpMM kernel.
type CSRAdjacency struct {
	M *sparse.CSR
}

// Rows returns the node count.
func (a *CSRAdjacency) Rows() int { return a.M.Rows }

// MulToCtx computes c = Â·b via CSR SpMM with the context's threads.
//
//cbm:hotpath
func (a *CSRAdjacency) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	kernels.SpMMDiagTo(c, a.M, b, nil, nil, ctx.Threads(), ctx.Sink())
}

// FootprintBytes reports the CSR memory footprint.
func (a *CSRAdjacency) FootprintBytes() int64 { return a.M.FootprintBytes() }

// CBMAdjacency is the paper's backend: Â stored as a CBM DAD matrix.
type CBMAdjacency struct {
	M *cbm.Matrix
}

// Rows returns the node count.
func (a *CBMAdjacency) Rows() int { return a.M.Rows() }

// MulToCtx computes c = Â·b via the CBM kernel with the context's
// threads.
//
//cbm:hotpath
func (a *CBMAdjacency) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	a.M.MulToCtx(ctx, c, b)
}

// FootprintBytes reports the CBM memory footprint.
func (a *CBMAdjacency) FootprintBytes() int64 { return a.M.FootprintBytes() }

// NewCSRBackend builds the baseline backend from a raw binary
// adjacency matrix: normalize, materialize, wrap.
func NewCSRBackend(adj *sparse.CSR) (*CSRAdjacency, error) {
	na, err := graph.NewNormalizedAdjacency(adj)
	if err != nil {
		return nil, err
	}
	return &CSRAdjacency{M: na.Materialize()}, nil
}

// NewCBMBackend builds the CBM backend from a raw binary adjacency
// matrix: normalize, compress the binary part (A+I), attach the
// diagonal as a symmetric (DAD) scale.
func NewCBMBackend(adj *sparse.CSR, opt cbm.Options) (*CBMAdjacency, cbm.BuildStats, error) {
	na, err := graph.NewNormalizedAdjacency(adj)
	if err != nil {
		return nil, cbm.BuildStats{}, err
	}
	base, stats, err := cbm.Compress(na.Binary, opt)
	if err != nil {
		return nil, cbm.BuildStats{}, err
	}
	return &CBMAdjacency{M: base.WithSymmetricScale(na.Diag)}, stats, nil
}
