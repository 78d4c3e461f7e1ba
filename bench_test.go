// Package repro's root benchmark harness: one testing.B family per
// table/figure of the paper, on reduced-size dataset analogs so
// `go test -bench=. -benchmem` completes in a laptop budget. The
// full-scale reproduction (paper-width operands, all eight analogs,
// mean ± σ formatting) lives in cmd/cbmbench.
//
//	Table I   → BenchmarkTable1Stats
//	Table II  → BenchmarkTable2Compress
//	Fig. 2    → BenchmarkFig2AX (α × {CSR, CBM} × {seq, par})
//	Table III → BenchmarkTable3ADX / BenchmarkTable3DADX
//	Table IV  → BenchmarkTable4GCN
//	Table V   → BenchmarkTable5Clustering
//	Ablations → BenchmarkUpdateStrategies, BenchmarkCompressPhases
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/staf"
	"repro/internal/synth"
	"repro/internal/xrand"
)

const benchCols = 32 // dense operand width for benches (paper: 500)

// benchDataset caches one reduced analog per family so graph
// generation and compression stay out of the timed loops.
type benchDataset struct {
	name string
	a    *sparse.CSR
	x    *dense.Matrix
	out  *dense.Matrix
	cbm0 *cbm.Matrix // α = 0
	cbm8 *cbm.Matrix // α = 8
	diag []float32
}

var (
	benchOnce sync.Once
	benchSets []*benchDataset
)

func benchData(b *testing.B) []*benchDataset {
	b.Helper()
	benchOnce.Do(func() {
		gens := []struct {
			name string
			gen  func() *sparse.CSR
		}{
			{"citation", func() *sparse.CSR { return synth.HolmeKim(4000, 2, 0.45, 1) }},
			{"coauthor", func() *sparse.CSR {
				return synth.SBMMixture(6000, []synth.SBMComponent{
					{Weight: 0.94, GroupSize: 24, InProb: 0.62},
					{Weight: 0.06, GroupSize: 130, InProb: 0.88},
				}, 1.0, 1)
			}},
			{"collab", func() *sparse.CSR {
				return synth.SBMMixture(8000, []synth.SBMComponent{
					{Weight: 0.45, GroupSize: 100, InProb: 0.96},
					{Weight: 0.30, GroupSize: 55, InProb: 0.95},
					{Weight: 0.25, GroupSize: 20, InProb: 0.95},
				}, 0.3, 1)
			}},
			{"protein", func() *sparse.CSR {
				return synth.HubTemplate(3900, 300, 350, 0.80, 0.10, 1.0, 1)
			}},
		}
		rng := xrand.New(99)
		for _, g := range gens {
			a := g.gen()
			d := &benchDataset{name: g.name, a: a}
			d.x = dense.New(a.Rows, benchCols)
			rng.FillUniform(d.x.Data)
			d.out = dense.New(a.Rows, benchCols)
			builder, err := cbm.NewBuilder(a, cbm.Options{})
			if err != nil {
				panic(err)
			}
			d.cbm0, _, err = builder.Compress(0, false)
			if err != nil {
				panic(err)
			}
			d.cbm8, _, err = builder.Compress(8, false)
			if err != nil {
				panic(err)
			}
			d.diag = make([]float32, a.Rows)
			for i := range d.diag {
				d.diag[i] = rng.Float32() + 0.5
			}
			benchSets = append(benchSets, d)
		}
	})
	return benchSets
}

// BenchmarkTable1Stats times the dataset summary statistics.
func BenchmarkTable1Stats(b *testing.B) {
	for _, d := range benchData(b) {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = graph.Summarize(d.a)
			}
		})
	}
}

// BenchmarkTable2Compress times the full CBM build (candidates + tree
// + deltas) at the two α corners of Table II.
func BenchmarkTable2Compress(b *testing.B) {
	for _, d := range benchData(b) {
		for _, alpha := range []int{0, 32} {
			b.Run(fmt.Sprintf("%s/alpha=%d", d.name, alpha), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := cbm.Compress(d.a, cbm.Options{Alpha: alpha}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig2AX times AX with the CSR baseline and the CBM format
// at α ∈ {0, 8}, sequential and parallel — the measurements behind the
// Fig. 2 sweep.
func BenchmarkFig2AX(b *testing.B) {
	for _, d := range benchData(b) {
		b.Run(d.name+"/CSR/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMMTo(d.out, d.a, d.x, 1)
			}
		})
		b.Run(d.name+"/CSR/par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMMTo(d.out, d.a, d.x, 0)
			}
		})
		for _, v := range []struct {
			tag string
			m   *cbm.Matrix
		}{{"alpha=0", d.cbm0}, {"alpha=8", d.cbm8}} {
			b.Run(d.name+"/CBM/"+v.tag+"/seq", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.m.MulTo(d.out, d.x, 1)
				}
			})
			b.Run(d.name+"/CBM/"+v.tag+"/par", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.m.MulTo(d.out, d.x, 0)
				}
			})
		}
	}
}

// BenchmarkTable3ADX times the column-scaled product.
func BenchmarkTable3ADX(b *testing.B) {
	for _, d := range benchData(b) {
		csr := d.a.ScaleCols(d.diag)
		ad := d.cbm8.WithColumnScale(d.diag)
		b.Run(d.name+"/CSR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMMTo(d.out, csr, d.x, 1)
			}
		})
		b.Run(d.name+"/CBM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ad.MulTo(d.out, d.x, 1)
			}
		})
	}
}

// BenchmarkTable3DADX times the symmetrically scaled product.
func BenchmarkTable3DADX(b *testing.B) {
	for _, d := range benchData(b) {
		csr := d.a.ScaleCols(d.diag).ScaleRows(d.diag)
		dad := d.cbm8.WithSymmetricScale(d.diag)
		b.Run(d.name+"/CSR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMMTo(d.out, csr, d.x, 1)
			}
		})
		b.Run(d.name+"/CBM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dad.MulTo(d.out, d.x, 1)
			}
		})
	}
}

// BenchmarkTable4GCN times two-layer GCN inference on both backends.
func BenchmarkTable4GCN(b *testing.B) {
	for _, d := range benchData(b) {
		na, err := graph.NewNormalizedAdjacency(d.a)
		if err != nil {
			b.Fatal(err)
		}
		csrBackend := &gnn.CSRAdjacency{M: na.Materialize()}
		base, _, err := cbm.Compress(na.Binary, cbm.Options{Alpha: 8})
		if err != nil {
			b.Fatal(err)
		}
		cbmBackend := &gnn.CBMAdjacency{M: base.WithSymmetricScale(na.Diag)}
		model := gnn.NewGCN2(benchCols, benchCols, benchCols, 42)
		b.Run(d.name+"/CSR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.Infer(csrBackend, d.x, 1)
			}
		})
		b.Run(d.name+"/CBM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.Infer(cbmBackend, d.x, 1)
			}
		})
	}
}

// BenchmarkTable5Clustering times the exact average clustering
// coefficient computation.
func BenchmarkTable5Clustering(b *testing.B) {
	for _, d := range benchData(b) {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = graph.AverageClusteringCoefficient(d.a, 0)
			}
		})
	}
}

// BenchmarkUpdateStrategies is the DESIGN.md ablation: the two-stage
// CBM plan vs the CSR plan that skips the compression tree.
func BenchmarkUpdateStrategies(b *testing.B) {
	for _, d := range benchData(b) {
		b.Run(d.name+"/branch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.cbm0.MulToStrategy(d.out, d.x, 0, cbm.StrategyBranch)
			}
		})
		b.Run(d.name+"/csr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.cbm0.MulToStrategy(d.out, d.x, 0, cbm.StrategyCSR)
			}
		})
	}
}

// BenchmarkCompressPhases isolates the candidate-graph phase (the AAᵀ
// work dominating compression, per Sec. VIII's memory discussion) from
// the per-α tree rebuild, demonstrating the Builder amortization.
func BenchmarkCompressPhases(b *testing.B) {
	for _, d := range benchData(b) {
		b.Run(d.name+"/candidates", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cbm.NewBuilder(d.a, cbm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		builder, err := cbm.NewBuilder(d.a, cbm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name+"/tree+deltas", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := builder.Compress(8, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGCNTrainingEpoch times one full-batch training epoch on
// both backends (the paper's future-work extension).
func BenchmarkGCNTrainingEpoch(b *testing.B) {
	d := benchData(b)[2] // collab regime: biggest CBM win
	labels := make([]int, d.a.Rows)
	for i := range labels {
		labels[i] = i % 4
	}
	na, err := graph.NewNormalizedAdjacency(d.a)
	if err != nil {
		b.Fatal(err)
	}
	csrBackend := &gnn.CSRAdjacency{M: na.Materialize()}
	base, _, err := cbm.Compress(na.Binary, cbm.Options{Alpha: 8})
	if err != nil {
		b.Fatal(err)
	}
	cbmBackend := &gnn.CBMAdjacency{M: base.WithSymmetricScale(na.Diag)}
	cfg := gnn.TrainConfig{LR: 0.1, Epochs: 1, Threads: 1}
	b.Run("CSR", func(b *testing.B) {
		model := gnn.NewGCN2(benchCols, 16, 4, 7)
		for i := 0; i < b.N; i++ {
			model.Train(csrBackend, d.x, labels, nil, cfg)
		}
	})
	b.Run("CBM", func(b *testing.B) {
		model := gnn.NewGCN2(benchCols, 16, 4, 7)
		for i := 0; i < b.N; i++ {
			model.Train(cbmBackend, d.x, labels, nil, cfg)
		}
	})
}

// BenchmarkFormats compares the three formats (CSR baseline, the STAF
// suffix trie of Sec. VII's related work, and CBM) on one AX product
// per structural regime.
func BenchmarkFormats(b *testing.B) {
	for _, d := range benchData(b) {
		forest, err := staf.Build(d.a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name+"/CSR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.SpMMTo(d.out, d.a, d.x, 1)
			}
		})
		b.Run(d.name+"/STAF", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				forest.MulTo(d.out, d.x, 1)
			}
		})
		b.Run(d.name+"/CBM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.cbm0.MulTo(d.out, d.x, 1)
			}
		})
	}
}

// BenchmarkSpMMScheduling compares row-dynamic scheduling against
// nnz-balanced segment scheduling (kernels.SpMMBalanced) on the
// protein regime, whose hub rows are the worst case for row dealing.
func BenchmarkSpMMScheduling(b *testing.B) {
	d := benchData(b)[3] // protein regime
	b.Run("row-dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.SpMMTo(d.out, d.a, d.x, 0)
		}
	})
	b.Run("nnz-balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.SpMMBalanced(d.out, d.a, d.x, 0)
		}
	})
}
