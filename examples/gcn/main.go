// GCN inference on a co-papers-style synthetic graph: build the
// normalized adjacency Â = D^{-1/2}(A+I)D^{-1/2}, run the paper's
// two-layer GCN (Eq. 1) on the CSR and CBM backends, verify agreement,
// and report the speedup — a single-graph rendition of Table IV.
//
//	go run ./examples/gcn
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func main() {
	// A scaled-down co-papers regime: tight communities of mixed size.
	a := synth.SBMMixture(8000, []synth.SBMComponent{
		{Weight: 0.5, GroupSize: 90, InProb: 0.94},
		{Weight: 0.5, GroupSize: 25, InProb: 0.93},
	}, 0.4, 7)
	fmt.Printf("graph: %d nodes, %d edges, avg degree %.1f\n",
		a.Rows, a.NNZ()/2, float64(a.NNZ())/float64(a.Rows))

	csrBackend, err := gnn.NewCSRBackend(a)
	if err != nil {
		log.Fatal(err)
	}
	cbmBackend, stats, err := gnn.NewCBMBackend(a, cbm.Options{Alpha: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CBM build: %v, Â footprint CSR %s MiB vs CBM %s MiB\n",
		stats.Total(),
		bench.MiB(csrBackend.FootprintBytes()),
		bench.MiB(cbmBackend.FootprintBytes()))

	const features, hidden, classes = 128, 128, 128 // paper: 500/500/500
	rng := xrand.New(1)
	x := dense.New(a.Rows, features)
	rng.FillUniform(x.Data)
	model := gnn.NewGCN2(features, hidden, classes, 42)

	// Correctness first (the paper's 1e-5 relative-tolerance check).
	z1 := model.Infer(csrBackend, x, 0)
	z2 := model.Infer(cbmBackend, x, 0)
	fmt.Printf("max relative difference CSR vs CBM: %.2e\n", dense.MaxRelDiff(z1, z2, 1))

	// Then timing.
	tCSR := bench.Measure(5, 1, func() { model.Infer(csrBackend, x, 0) })
	tCBM := bench.Measure(5, 1, func() { model.Infer(cbmBackend, x, 0) })
	fmt.Printf("inference: CSR %s s, CBM %s s → speedup %.2f×\n",
		tCSR, tCBM, tCSR.Seconds()/tCBM.Seconds())
}
