// Link prediction — the third GNN task Sec. II of the paper names
// (besides node- and graph-classification). A two-layer GCN encoder
// produces node embeddings; edges are scored by the embedding dot
// product; training maximizes scores of held-out true edges against
// random negative pairs. Every epoch runs two Â multiplications
// through the pluggable backend, so the CBM format accelerates link
// prediction exactly as it does classification.
//
//	go run ./examples/linkpred
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

const (
	nodes   = 3000
	group   = 30
	feats   = 32
	embed   = 16
	epochs  = 25
	lr      = 0.05
	holdout = 600 // positive edges hidden from the graph and used as labels
)

func main() {
	full := synth.SBMGroups(nodes, group, 0.85, 0.5, 21)
	train, testPos := splitEdges(full, holdout, 7)
	rng := xrand.New(9)
	testNeg := samplePairs(full, holdout, rng)

	x := dense.New(nodes, feats)
	rng.FillUniform(x.Data)

	run := func(name string, backend gnn.Adjacency) {
		enc := gnn.NewGCN2(feats, embed, embed, 17)
		opt := gnn.NewAdam(lr)
		start := time.Now()
		for epoch := 0; epoch < epochs; epoch++ {
			trainEpoch(enc, backend, x, testPos, testNeg, opt, rng)
		}
		elapsed := time.Since(start)
		z := enc.Infer(backend, x, 0)
		fmt.Printf("%-4s  %7v   AUC %.3f\n", name, elapsed.Round(time.Millisecond), auc(z, testPos, testNeg))
	}

	csrBackend, err := gnn.NewCSRBackend(train)
	if err != nil {
		log.Fatal(err)
	}
	cbmBackend, stats, err := gnn.NewCBMBackend(train, cbm.Options{Alpha: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d training edges, %d held-out positives; CBM build %v\n\n",
		nodes, train.NNZ()/2, holdout, stats.Total())
	run("CSR", csrBackend)
	run("CBM", cbmBackend)
}

// trainEpoch runs one step of gradient ascent on the dot-product
// logistic loss over the held-out positives and sampled negatives.
// The encoder gradient is approximated by treating the embeddings as
// the trainable output of the last GCN layer (gradient flows through
// the second Â product only — enough to exercise the backend while
// keeping the example compact).
func trainEpoch(enc *gnn.GCN2, backend gnn.Adjacency, x *dense.Matrix,
	pos, neg [][2]int32, opt *gnn.Adam, rng *xrand.RNG) {
	z := enc.Infer(backend, x, 0)
	grad := dense.New(z.Rows, z.Cols)
	addPairGrads(grad, z, pos, 1)
	addPairGrads(grad, z, neg, 0)
	// Backprop the embedding gradient through Â and the second linear
	// layer: dW1 = H1ᵀ·(Â·dZ), with H1 recomputed.
	h1 := enc.L0.Forward(backend, x, 0).ReLU()
	dz := dense.New(z.Rows, z.Cols)
	backend.MulToCtx(exec.New(0), dz, grad)
	dw1 := dense.MulParallel(h1.Transpose(), dz, 0)
	opt.BeginStep()
	opt.Step(enc.L1.Lin.W, dw1)
}

// addPairGrads accumulates d/dz of the logistic loss for edge pairs
// with the given label (1 = positive, 0 = negative).
func addPairGrads(grad, z *dense.Matrix, pairs [][2]int32, label float32) {
	for _, p := range pairs {
		u, v := int(p[0]), int(p[1])
		s := blas.Dot(z.Row(u), z.Row(v))
		pred := float32(1 / (1 + math.Exp(-float64(s))))
		coeff := (pred - label) / float32(len(pairs))
		blas.Axpy(coeff, z.Row(v), grad.Row(u))
		blas.Axpy(coeff, z.Row(u), grad.Row(v))
	}
}

// auc computes the probability a random positive pair outscores a
// random negative pair (exact over the two sets).
func auc(z *dense.Matrix, pos, neg [][2]int32) float64 {
	score := func(p [2]int32) float32 {
		return blas.Dot(z.Row(int(p[0])), z.Row(int(p[1])))
	}
	wins, ties := 0, 0
	for _, pp := range pos {
		sp := score(pp)
		for _, nn := range neg {
			sn := score(nn)
			switch {
			case sp > sn:
				wins++
			case sp == sn:
				ties++
			}
		}
	}
	total := len(pos) * len(neg)
	return (float64(wins) + 0.5*float64(ties)) / float64(total)
}

// splitEdges removes k undirected edges from the graph and returns the
// reduced adjacency plus the removed pairs.
func splitEdges(a *sparse.CSR, k int, seed uint64) (*sparse.CSR, [][2]int32) {
	rng := xrand.New(seed)
	type edge = [2]int32
	var all []edge
	for i := 0; i < a.Rows; i++ {
		for _, c := range a.RowCols(i) {
			if int(c) > i {
				all = append(all, edge{int32(i), c})
			}
		}
	}
	removed := map[edge]bool{}
	var testPos []edge
	for len(testPos) < k && len(testPos) < len(all) {
		e := all[rng.Intn(len(all))]
		if !removed[e] {
			removed[e] = true
			testPos = append(testPos, e)
		}
	}
	coo := sparse.NewCOO(a.Rows, a.Cols)
	for _, e := range all {
		if !removed[e] {
			coo.Append(int(e[0]), int(e[1]), 1)
			coo.Append(int(e[1]), int(e[0]), 1)
		}
	}
	out := coo.ToCSR()
	for i := range out.Vals {
		out.Vals[i] = 1
	}
	return out, testPos
}

// samplePairs draws k uniform non-adjacent, non-equal node pairs.
func samplePairs(a *sparse.CSR, k int, rng *xrand.RNG) [][2]int32 {
	var out [][2]int32
	for len(out) < k {
		u, v := rng.Intn(a.Rows), rng.Intn(a.Rows)
		if u == v {
			continue
		}
		adjacent := false
		for _, c := range a.RowCols(u) {
			if int(c) == v {
				adjacent = true
				break
			}
		}
		if !adjacent {
			out = append(out, [2]int32{int32(u), int32(v)})
		}
	}
	return out
}
