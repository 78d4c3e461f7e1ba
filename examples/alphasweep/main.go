// Alpha tuning: sweep the edge-pruning threshold α over one graph and
// print the compression/speed frontier, the per-graph version of the
// paper's Fig. 2. The candidate graph is computed once via the Builder
// API; each α costs only a tree + delta rebuild.
//
//	go run ./examples/alphasweep
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func main() {
	// Co-authorship regime: small tight groups plus a few large
	// collaborations, so α actually changes the tree.
	a := synth.SBMMixture(10000, []synth.SBMComponent{
		{Weight: 0.92, GroupSize: 16, InProb: 0.75},
		{Weight: 0.08, GroupSize: 150, InProb: 0.90},
	}, 0.5, 3)
	fmt.Printf("graph: %d nodes, %d edges\n", a.Rows, a.NNZ()/2)

	builder, err := cbm.NewBuilder(a, cbm.Options{})
	if err != nil {
		log.Fatal(err)
	}

	rng := xrand.New(9)
	b := dense.New(a.Rows, 64)
	rng.FillUniform(b.Data)
	c := dense.New(a.Rows, 64)
	tCSR := bench.Measure(5, 1, func() { kernels.SpMMTo(c, a, b, 1) })
	fmt.Printf("CSR SpMM baseline: %s s\n\n", tCSR)

	fmt.Printf("%5s  %8s  %8s  %10s  %10s  %9s\n",
		"alpha", "ratio", "speedup", "deltas/nnz", "rootKids", "modeled16")
	bestAlpha, bestSpeedup := 0, 0.0
	for _, alpha := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		m, stats, err := builder.Compress(alpha, false)
		if err != nil {
			log.Fatal(err)
		}
		tCBM := bench.Measure(5, 1, func() { m.MulTo(c, b, 1) })
		speedup := tCSR.Seconds() / tCBM.Seconds()
		if speedup > bestSpeedup {
			bestSpeedup, bestAlpha = speedup, alpha
		}
		fmt.Printf("%5d  %8.2f  %8.2f  %10.3f  %10d  %9.2f\n",
			alpha,
			float64(a.FootprintBytes())/float64(m.FootprintBytes()),
			speedup,
			float64(m.NumDeltas())/float64(a.NNZ()),
			stats.VirtualKids,
			costmodel.ModeledSpeedup(a, m.Shape(), 64, 16),
		)
	}
	fmt.Printf("\nbest sequential α for this graph: %d (%.2f×)\n", bestAlpha, bestSpeedup)
}
