// Graph classification — Sec. II's remaining GNN task. Many small
// graphs of two structural classes (tight communities vs random) are
// batched into one block-diagonal adjacency, so the whole batch runs
// through a single Â product per layer; a mean readout pools node
// embeddings per graph and a linear head classifies. The batched
// adjacency is itself a (large, binary) sparse matrix, so the whole
// pipeline runs unchanged on either backend; how much CBM wins depends
// on the *within-graph* row similarity of the batch members (blocks
// never share columns, so compression happens inside each block).
//
//	go run ./examples/graphclass
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

const (
	graphsPerClass = 60
	minNodes       = 40
	maxNodes       = 80
	feats          = 16
	hidden         = 16
)

func main() {
	rng := xrand.New(3)

	// Build the batch: class 0 = clustered (SBM), class 1 = random (ER)
	// with matched sizes and degrees, so structure — not size — is the
	// signal.
	var blocks []*sparse.CSR
	var labels []int
	for i := 0; i < graphsPerClass; i++ {
		n := minNodes + rng.Intn(maxNodes-minNodes)
		blocks = append(blocks, synth.SBMGroups(n, 10, 0.8, 0.5, rng.Uint64()))
		labels = append(labels, 0)
		blocks = append(blocks, synth.ErdosRenyi(n, 8, rng.Uint64()))
		labels = append(labels, 1)
	}
	batched, offsets := sparse.BlockDiag(blocks...)
	fmt.Printf("batch: %d graphs, %d total nodes, %d edges\n",
		len(blocks), batched.Rows, batched.NNZ()/2)

	// Node features: degree plus the local clustering coefficient —
	// triangles are what separates the classes (degrees are matched by
	// construction).
	local := graph.LocalClusteringCoefficients(batched, 0)
	x := dense.New(batched.Rows, feats)
	for i := 0; i < batched.Rows; i++ {
		x.Set(i, 0, float32(batched.RowNNZ(i))/10)
		x.Set(i, 1, float32(local[i]))
		for j := 2; j < feats; j++ {
			x.Set(i, j, rng.Float32()*0.1)
		}
	}
	cc := graph.AverageClusteringCoefficient(batched, 0)
	fmt.Printf("batched clustering coefficient: %.2f\n", cc)

	run := func(name string, backend gnn.Adjacency) {
		enc := gnn.NewGCN2(feats, hidden, hidden, 11)
		head := gnn.NewLinear(hidden, 2, true, xrand.New(12))
		opt := gnn.NewAdam(0.1)
		start := time.Now()
		var loss float64
		for epoch := 0; epoch < 120; epoch++ {
			z := enc.Infer(backend, x, 0)         // node embeddings
			pooled := gnn.MeanReadout(z, offsets) // one row per graph
			logits := head.Forward(pooled, 0)     // graph logits
			grad := dense.New(logits.Rows, logits.Cols)
			loss = gnn.SoftmaxCrossEntropy(logits, labels, nil, grad)
			// head-only gradient step (encoder fixed): enough signal
			// for this structural task and keeps the example compact
			dw := dense.MulParallel(pooled.Transpose(), grad, 0)
			opt.BeginStep()
			opt.Step(head.W, dw)
		}
		elapsed := time.Since(start)
		z := enc.Infer(backend, x, 0)
		logits := head.Forward(gnn.MeanReadout(z, offsets), 0)
		fmt.Printf("%-4s  %7v   loss %.3f   accuracy %.3f\n",
			name, elapsed.Round(time.Millisecond), loss, gnn.Accuracy(logits, labels, nil))
	}

	csrBackend, err := gnn.NewCSRBackend(batched)
	if err != nil {
		log.Fatal(err)
	}
	cbmBackend, stats, err := gnn.NewCBMBackend(batched, cbm.Options{Alpha: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CBM build %v, deltas/nnz %.3f\n\n",
		stats.Total(), float64(stats.TreeWeight)/float64(batched.NNZ()+batched.Rows))
	run("CSR", csrBackend)
	run("CBM", cbmBackend)
}
