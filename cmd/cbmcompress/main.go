// Command cbmcompress converts a graph to the CBM format and reports
// Table-II style compression statistics: build time per phase,
// footprints, compression ratio, tree shape.
//
// Input is either a registered synthetic dataset (-dataset) or an
// edge-list file (-in, "src dst" per line). Use -save to serialize the
// compressed matrix to disk in the repository's binary CBM container.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "registered dataset analog name (see cbmbench -list)")
		in      = flag.String("in", "", "edge-list file to compress instead of a dataset")
		alpha   = flag.Int("alpha", 0, "edge-pruning threshold α")
		threads = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "generator seed for -dataset")
		maxCand = flag.Int("maxcand", 0, "cap candidate parents per row (0 = unlimited)")
		save    = flag.String("save", "", "write the compressed matrix to this file")
		dot     = flag.String("dot", "", "write the compression tree as Graphviz DOT to this file")
		hist    = flag.Bool("hist", false, "print the per-row delta histogram and branch-size distribution")
		metrics = flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
	)
	flag.Parse()

	var a *sparse.CSR
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*in, ".mtx") {
			a, err = sparse.ReadMatrixMarket(f)
		} else {
			a, err = sparse.ReadEdgeList(f)
		}
		_ = f.Close() // read-only handle; decode errors are checked below
		if err != nil {
			fatal(err)
		}
		if !a.IsBinary() {
			// CBM compresses binary matrices; drop weights like the
			// paper does for ogbn-proteins.
			for i := range a.Vals {
				a.Vals[i] = 1
			}
			_, _ = fmt.Fprintln(os.Stderr, "cbmcompress: input had values; weights dropped (binary pattern kept)")
		}
		// Edge lists may be directed; CBM needs only binary + square,
		// both of which ReadEdgeList guarantees for square inputs.
		if a.Rows != a.Cols {
			fatal(fmt.Errorf("edge list is %d×%d; CBM needs a square matrix", a.Rows, a.Cols))
		}
	case *dataset != "":
		d, err := bench.Get(*dataset)
		if err != nil {
			fatal(err)
		}
		a = d.Generate(*seed)
	default:
		fatal(fmt.Errorf("pass -dataset <name> or -in <edgelist>"))
	}

	opt := cbm.Options{
		Alpha:         *alpha,
		Threads:       *threads,
		MaxCandidates: *maxCand,
	}
	m, stats, err := cbm.Compress(a, opt)
	if err != nil {
		fatal(err)
	}
	ratio := float64(a.FootprintBytes()) / float64(m.FootprintBytes())
	outf("matrix:            %d×%d, nnz %d\n", a.Rows, a.Cols, a.NNZ())
	outf("alpha:             %d\n", *alpha)
	outf("candidate edges:   %d\n", stats.CandidateEdges)
	outf("deltas (nnz A'):   %d  (%.1f%% of nnz)\n",
		m.NumDeltas(), 100*float64(m.NumDeltas())/float64(maxInt(a.NNZ(), 1)))
	outf("tree edges:        %d real, %d virtual-root children, depth %d\n",
		stats.TreeEdges, stats.VirtualKids, stats.Depth)
	outf("build time:        %v (candidates %v, tree %v over %d components, deltas %v)\n",
		stats.Total(), stats.CandidateTime, stats.TreeTime, stats.Components, stats.DeltaTime)
	outf("S_CSR:             %s MiB\n", bench.MiB(a.FootprintBytes()))
	outf("S_CBM:             %s MiB\n", bench.MiB(m.FootprintBytes()))
	outf("compression ratio: %.2f×\n", ratio)
	if *hist {
		printHistograms(m)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := m.WriteDOT(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		outf("tree DOT:          %s\n", *dot)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := m.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		outf("saved:             %s\n", *save)
	}
	if *metrics {
		if err := obs.WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// printHistograms summarizes the format's shape: how many deltas each
// row needed (bucketed by powers of two) and how large the parallel
// branches are.
func printHistograms(m *cbm.Matrix) {
	bucketOf := func(v int) int {
		b := 0
		for v > 0 {
			v >>= 1
			b++
		}
		return b
	}
	deltaBuckets := map[int]int{}
	for x := 0; x < m.Rows(); x++ {
		deltaBuckets[bucketOf(m.Delta().RowNNZ(x))]++
	}
	outf("%s\n", "per-row delta histogram (bucket = ⌈log2(deltas+1)⌉):")
	for b := 0; b <= 32; b++ {
		if c, ok := deltaBuckets[b]; ok {
			lo, hi := 0, 0
			if b > 0 {
				lo, hi = 1<<(b-1), (1<<b)-1
			}
			outf("  %7d..%-7d %d rows\n", lo, hi, c)
		}
	}
	branchBuckets := map[int]int{}
	for _, sz := range m.BranchSizes() {
		branchBuckets[bucketOf(sz)]++
	}
	outf("%s\n", "branch-size histogram:")
	for b := 1; b <= 32; b++ {
		if c, ok := branchBuckets[b]; ok {
			outf("  %7d..%-7d %d branches\n", 1<<(b-1), (1<<b)-1, c)
		}
	}
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "cbmcompress:", err)
	os.Exit(1)
}

// outf writes a formatted line to stdout and exits non-zero if the
// write fails, so a broken pipe cannot silently truncate the report.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "cbmcompress: write:", err)
		os.Exit(1)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
