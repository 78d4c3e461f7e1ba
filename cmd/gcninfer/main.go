// Command gcninfer times two-layer GCN inference (Eq. 1 of the paper)
// on a dataset analog, with the normalized adjacency stored either as
// one scaled CSR matrix or as a CBM DAD matrix, and reports the
// speedup. It is the single-dataset interactive version of
// `cbmbench -exp table4`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func main() {
	var (
		dataset     = flag.String("dataset", "ca-hepph", "registered dataset analog (see cbmbench -list)")
		alpha       = flag.Int("alpha", 4, "CBM edge-pruning threshold α")
		threads     = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		cols        = flag.Int("cols", 128, "feature/hidden/class width (paper: 500)")
		reps        = flag.Int("reps", 5, "timing repetitions")
		seed        = flag.Uint64("seed", 1, "generator seed")
		train       = flag.Bool("train", false, "also run a short training loop on both backends")
		metrics     = flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
		stageLabels = flag.Bool("stage-labels", false, "tag pipeline stages with runtime/pprof labels (cbm_stage=...)")
		doReorder   = flag.String("reorder", "", "run the CBM backend on the reordered graph: minhash or rcm (features gathered / outputs scattered transparently)")
		window      = flag.Int("window", 0, "CBM candidate band |x−y| ≤ window (0 = exact); pairs with -reorder")
		shards      = flag.Int("shards", 0, "serve the CBM side through the row-partitioned sharded backend (0/1 = unsharded)")
		shardOrder  = flag.String("shard-order", "", "row ordering before the shard cut: natural (default), minhash or rcm")
	)
	flag.Parse()
	if *stageLabels {
		obs.EnableProfiling()
	}

	d, err := bench.Get(*dataset)
	if err != nil {
		fatal(err)
	}
	a := d.Generate(*seed)
	outf("graph: %s (%d nodes, %d edges)\n", d.Name, a.Rows, a.NNZ())

	csrBackend, err := gnn.NewCSRBackend(a)
	if err != nil {
		fatal(err)
	}
	copt := cbm.Options{Alpha: *alpha, Threads: *threads, Window: *window}
	var (
		cbmAdj     gnn.Adjacency     // what we time: raw, permutation-wrapped or sharded
		cbmBackend *gnn.CBMAdjacency // nil in sharded mode
	)
	if *shards > 1 {
		sb, err := gnn.NewShardedCBMBackend(a, shard.Options{Shards: *shards, CBM: copt}, *shardOrder)
		if err != nil {
			fatal(err)
		}
		cbmAdj = sb.Backend
		halo := 0
		for _, h := range sb.Stats.HaloNNZ {
			halo += h
		}
		outf("shards: %d (order %q, halo nnz %d, imbalance %d‰)\n",
			sb.Stats.Shards, shardOrderLabel(*shardOrder), halo, sb.Stats.ImbalancePermille)
	} else if *doReorder != "" {
		strat, err := reorder.ParseStrategy(*doReorder)
		if err != nil {
			fatal(err)
		}
		re, bs, rs, err := gnn.NewReorderedCBMBackend(a, copt, reorder.Options{Threads: *threads, Strategy: strat})
		if err != nil {
			fatal(err)
		}
		cbmAdj, cbmBackend = re, re.Inner.(*gnn.CBMAdjacency)
		outf("reorder (%s): %d buckets, largest %d\n", strat, rs.Buckets, rs.LargestBucket)
		printBuild(a, cbmBackend, bs)
	} else {
		b, bs, err := gnn.NewCBMBackend(a, copt)
		if err != nil {
			fatal(err)
		}
		cbmAdj, cbmBackend = b, b
		printBuild(a, cbmBackend, bs)
	}
	outf("Â footprint: CSR %s MiB, CBM %s MiB\n",
		bench.MiB(csrBackend.FootprintBytes()), bench.MiB(cbmAdj.FootprintBytes()))

	rng := xrand.New(*seed + 11)
	x := dense.New(a.Rows, *cols)
	rng.FillUniform(x.Data)
	model := gnn.NewGCN2(*cols, *cols, *cols, *seed+7)

	th := *threads
	if cbmBackend != nil {
		outf("CBM plan: %s\n", cbmBackend.M.PlanFor(th, *cols))
	}
	tCSR := bench.Measure(*reps, 1, func() { model.Infer(csrBackend, x, th) })
	tCBM := bench.Measure(*reps, 1, func() { model.Infer(cbmAdj, x, th) })
	outf("inference CSR: %s s\n", tCSR)
	outf("inference CBM: %s s\n", tCBM)
	outf("speedup:       %.2f×\n", tCSR.Seconds()/tCBM.Seconds())

	// Correctness cross-check, the paper's 1e-5 criterion.
	z1 := model.Infer(csrBackend, x, th)
	z2 := model.Infer(cbmAdj, x, th)
	outf("max rel diff CSR vs CBM: %.2e\n", dense.MaxRelDiff(z1, z2, 1))

	if *train {
		labels := make([]int, a.Rows)
		for i := range labels {
			labels[i] = i % 4
		}
		small := gnn.NewGCN2(*cols, 32, 4, *seed+9)
		cfg := gnn.TrainConfig{LR: 0.2, Epochs: 10, Threads: th}
		tTrainCSR := bench.Measure(1, 0, func() { small.Train(csrBackend, x, labels, nil, cfg) })
		tTrainCBM := bench.Measure(1, 0, func() { small.Train(cbmAdj, x, labels, nil, cfg) })
		outf("train 10 epochs CSR: %s s\n", tTrainCSR)
		outf("train 10 epochs CBM: %s s  (%.2f×)\n",
			tTrainCBM, tTrainCSR.Seconds()/tTrainCBM.Seconds())
	}

	if *metrics {
		if err := obs.WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// printBuild reports the CBM compression shape (unsharded modes; the
// sharded backend reports its partition line instead).
func printBuild(a *sparse.CSR, b *gnn.CBMAdjacency, stats cbm.BuildStats) {
	outf("CBM build: %v (deltas/nnz = %.3f, %d branches)\n",
		stats.Total(),
		float64(b.M.NumDeltas())/float64(b.M.Delta().Rows+a.NNZ()),
		b.M.NumBranches())
}

func shardOrderLabel(order string) string {
	if order == "" {
		return "natural"
	}
	return order
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "gcninfer:", err)
	os.Exit(1)
}

// outf writes a formatted line to stdout and exits non-zero if the
// write fails, so a broken pipe cannot silently truncate the report.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "gcninfer: write:", err)
		os.Exit(1)
	}
}
