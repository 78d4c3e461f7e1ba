// GCN training with the CBM backend — the paper's stated future-work
// direction. A node-classification task is planted in an SBM graph
// (labels = community blocks); the two-layer GCN is trained full-batch
// on 10% labeled nodes with both adjacency backends. Every epoch runs
// two forward and two backward Â-multiplications, so the CBM format
// accelerates training end to end.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func main() {
	const (
		n       = 4000
		group   = 40
		classes = 5
		feats   = 32
	)
	a := synth.SBMGroups(n, group, 0.9, 1.0, 11)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i / group) % classes
	}
	// Features: noisy label one-hot — learnable but not trivial.
	rng := xrand.New(5)
	x := dense.New(n, feats)
	for i := 0; i < n; i++ {
		x.Set(i, labels[i], 1)
		for j := 0; j < feats; j++ {
			x.Set(i, j, x.At(i, j)+0.3*rng.Float32())
		}
	}
	// 10% of nodes supervised.
	mask := make([]bool, n)
	for i := 0; i < n; i += 10 {
		mask[i] = true
	}

	cfg := gnn.TrainConfig{LR: 0.4, Epochs: 30, Threads: 0}

	run := func(name string, backend gnn.Adjacency) {
		model := gnn.NewGCN2(feats, 32, classes, 17) // same seed → same init
		start := time.Now()
		res := model.Train(backend, x, labels, mask, cfg)
		elapsed := time.Since(start)
		// Accuracy on the *unlabeled* nodes (transductive evaluation).
		eval := make([]bool, n)
		for i := range eval {
			eval[i] = !mask[i]
		}
		z := model.Infer(backend, x, 0)
		fmt.Printf("%-4s  %v   loss %.3f → %.3f   unlabeled accuracy %.3f\n",
			name, elapsed.Round(time.Millisecond),
			res.Losses[0], res.Losses[len(res.Losses)-1],
			gnn.Accuracy(z, labels, eval))
	}

	csrBackend, err := gnn.NewCSRBackend(a)
	if err != nil {
		log.Fatal(err)
	}
	cbmBackend, stats, err := gnn.NewCBMBackend(a, cbm.Options{Alpha: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; CBM build %v, deltas/nnz %.3f\n\n",
		n, a.NNZ()/2, stats.Total(),
		float64(stats.TreeWeight)/float64(a.NNZ()+n))

	run("CSR", csrBackend)
	run("CBM", cbmBackend)
}
