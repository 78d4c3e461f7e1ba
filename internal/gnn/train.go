package gnn

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/exec"
)

// Training for the two-layer GCN — the paper's stated future-work
// direction ("targeting the training stage of these networks"). The
// backward pass multiplies Â with the gradients twice per step, so the
// CBM backend accelerates training through the same Adjacency
// interface as inference.

// TrainConfig controls full-batch gradient descent.
type TrainConfig struct {
	LR      float32
	Epochs  int
	Threads int
}

// TrainResult reports per-epoch loss and final training accuracy.
type TrainResult struct {
	Losses   []float64
	Accuracy float64
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits z
// against integer labels over the masked rows (mask nil = all rows),
// and writes dL/dz into grad (same shape as z). It returns the loss.
func SoftmaxCrossEntropy(z *dense.Matrix, labels []int, mask []bool, grad *dense.Matrix) float64 {
	if len(labels) != z.Rows {
		panic(fmt.Sprintf("gnn: labels length mismatch: len(labels)=%d, z has %d rows", len(labels), z.Rows))
	}
	if grad.Rows != z.Rows || grad.Cols != z.Cols {
		panic(fmt.Sprintf("gnn: grad shape mismatch: %dx%d, want %dx%d", grad.Rows, grad.Cols, z.Rows, z.Cols))
	}
	grad.Zero()
	count := 0
	for i := 0; i < z.Rows; i++ {
		if mask == nil || mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1.0 / float64(count)
	finv := float32(inv)
	loss := 0.0
	for i := 0; i < z.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		row := z.Row(i)
		grow := grad.Row(i)
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - float64(maxv))
		}
		logSum := math.Log(sum)
		lbl := labels[i]
		loss += (logSum - (float64(row[lbl]) - float64(maxv))) * inv
		for j := range grow {
			p := math.Exp(float64(row[j])-float64(maxv)) / sum
			grow[j] = float32(p * inv)
		}
		grow[lbl] -= finv
	}
	return loss
}

// Accuracy returns the fraction of masked rows whose argmax prediction
// matches the label.
func Accuracy(z *dense.Matrix, labels []int, mask []bool) float64 {
	total, hit := 0, 0
	for i := 0; i < z.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		total++
		row := z.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Train runs full-batch gradient descent on the two-layer GCN. mask
// selects the supervised nodes (nil = all). The backward pass uses the
// symmetry of Â (Âᵀ = Â) so both gradient propagations are plain
// backend multiplications.
func (g *GCN2) Train(a Adjacency, x *dense.Matrix, labels []int, mask []bool, cfg TrainConfig) TrainResult {
	n := a.Rows()
	threads := cfg.Threads
	ctx := exec.New(threads)
	res := TrainResult{Losses: make([]float64, 0, cfg.Epochs)}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Forward, keeping intermediates for backprop.
		p0 := dense.New(n, g.L0.Lin.Out)
		g.L0.Lin.ForwardTo(ctx, p0, x) // X·W0
		s0 := dense.New(n, p0.Cols)
		a.MulToCtx(ctx, s0, p0) // Â·X·W0
		h1 := s0.Clone().ReLU()
		p1 := dense.New(n, g.L1.Lin.Out)
		g.L1.Lin.ForwardTo(ctx, p1, h1) // H1·W1
		z := dense.New(n, p1.Cols)
		a.MulToCtx(ctx, z, p1) // Â·H1·W1

		dz := dense.New(n, z.Cols)
		loss := SoftmaxCrossEntropy(z, labels, mask, dz)
		res.Losses = append(res.Losses, loss)

		// Backward.
		dp1 := dense.New(n, dz.Cols)
		a.MulToCtx(ctx, dp1, dz)                               // Âᵀ·dZ = Â·dZ
		dw1 := dense.MulParallel(h1.Transpose(), dp1, threads) // H1ᵀ·dP1
		dh1 := dense.MulParallel(dp1, g.L1.Lin.W.Transpose(), threads)
		// ReLU gate: dS0 = dH1 ⊙ 1[S0 > 0]
		for i, v := range s0.Data {
			if v <= 0 {
				dh1.Data[i] = 0
			}
		}
		dp0 := dense.New(n, dh1.Cols)
		a.MulToCtx(ctx, dp0, dh1) // Â·dS0
		dw0 := dense.MulParallel(x.Transpose(), dp0, threads)

		// SGD step.
		applySGD(g.L1.Lin.W, dw1, cfg.LR)
		applySGD(g.L0.Lin.W, dw0, cfg.LR)
	}

	z := dense.New(n, g.L1.Lin.Out)
	g.InferTo(ctx, z, a, x)
	res.Accuracy = Accuracy(z, labels, mask)
	return res
}

func applySGD(w, grad *dense.Matrix, lr float32) {
	for i := range w.Data {
		w.Data[i] -= lr * grad.Data[i]
	}
}
