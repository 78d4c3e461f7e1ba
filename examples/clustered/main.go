// Scalable compression via MinHash clustering — the paper's final-
// remarks strategy for graphs whose exact candidate pass (AAᵀ) would
// exhaust memory (the paper measured 92 GiB for Reddit). Rows are
// clustered by neighbourhood MinHash and compression candidates stay
// within clusters, trading a little compression for a hard bound on
// candidate memory.
//
//	go run ./examples/clustered
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func main() {
	// A dense-ish community graph where the exact pass has a large
	// candidate set.
	a := synth.SBMMixture(20000, []synth.SBMComponent{
		{Weight: 0.6, GroupSize: 80, InProb: 0.93},
		{Weight: 0.4, GroupSize: 30, InProb: 0.90},
	}, 0.5, 13)
	fmt.Printf("graph: %d nodes, %d edges\n\n", a.Rows, a.NNZ()/2)

	// Exact compression.
	start := time.Now()
	exact, exactStats, err := cbm.Compress(a, cbm.Options{Alpha: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact:     %8d candidate edges, ratio %.2f×, %v\n",
		exactStats.CandidateEdges,
		float64(a.FootprintBytes())/float64(exact.FootprintBytes()),
		time.Since(start).Round(time.Millisecond))

	// Clustered compression at increasing cluster purity.
	for _, hashes := range []int{1, 2, 4} {
		start = time.Now()
		m, _, cstats, err := cbm.CompressClustered(a,
			cbm.Options{Alpha: 0}, cbm.ClusterOptions{Hashes: hashes, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hashes=%d:  %8d candidate edges (%d clusters, largest %d), ratio %.2f×, %v\n",
			hashes, cstats.CandidateEdges, cstats.Clusters, cstats.LargestCluster,
			float64(a.FootprintBytes())/float64(m.FootprintBytes()),
			time.Since(start).Round(time.Millisecond))
	}

	// The clustered result is a perfectly ordinary CBM matrix.
	m, _, _, err := cbm.CompressClustered(a, cbm.Options{Alpha: 0}, cbm.ClusterOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rng := xrand.New(2)
	x := dense.New(a.Rows, 32)
	rng.FillUniform(x.Data)
	got := m.MulParallel(x, 0)
	want := kernels.SpMMParallel(a, x, 0)
	fmt.Printf("\nproduct check vs CSR: max rel diff %.2e\n", dense.MaxRelDiff(got, want, 1))
}
