// Command cbmbench regenerates every table and figure of the paper's
// evaluation section on the synthetic dataset analogs.
//
// Usage:
//
//	cbmbench -exp all                      # everything, scaled defaults
//	cbmbench -exp table2,fig2 -datasets cora,collab
//	cbmbench -exp table4 -cols 500 -reps 25   # paper-width GCN run
//
// Results print as plain-text tables mirroring the paper's layout and
// include the paper's published values for side-by-side comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		exps         = flag.String("exp", "all", "comma-separated experiments: table1,table2,fig2,table3,table4,table5,verify,bench,ablation,gnnsuite,scaling,memwall,buildscale,all")
		seed         = flag.Uint64("seed", 1, "generator seed")
		threads      = flag.Int("threads", 0, "parallel worker count (0 = GOMAXPROCS; -exp bench clamps it to the cores present)")
		cols         = flag.Int("cols", 128, "columns of the dense operand X (paper: 500)")
		reps         = flag.Int("reps", 5, "timing repetitions (paper: 250)")
		warmup       = flag.Int("warmup", 1, "warmup runs before timing")
		datasets     = flag.String("datasets", "", "comma-separated dataset subset (default: all; see -list)")
		alphas       = flag.String("alphas", "", "comma-separated α sweep for fig2 (default 0,1,2,4,8,16,32)")
		out          = flag.String("o", "", "write output to this file as well as stdout")
		list         = flag.Bool("list", false, "list registered datasets and exit")
		verifyTrials = flag.Int("verify-trials", 5, "random operand matrices per dataset for -exp verify (paper: 50)")
		jsonOut      = flag.String("json", "", "additionally write all results as JSON to this file")
		benchOut     = flag.String("bench-out", "BENCH_cbm.json", "machine-readable report file for -exp bench")
		checkBench   = flag.String("check-bench", "", "validate an existing bench report file and exit")
		metrics      = flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
		profile      = flag.Bool("stage-labels", false, "attach pprof cbm_stage goroutine labels to instrumented regions")
		doReorder    = flag.String("reorder", "", "run -exp bench headline numbers on the reordered graph (banded candidate build): minhash or rcm")
		window       = flag.Int("window", 0, "candidate band for the bench reorder block (0 = default 64)")
		shards       = flag.String("shards", "", "comma-separated shard counts for the bench shard block (default 1,2,4,8)")
		shardOrder   = flag.String("shard-order", "", "row ordering before the shard cut: natural (default), minhash or rcm")
	)
	flag.Parse()

	if *checkBench != "" {
		f, err := os.Open(*checkBench)
		if err != nil {
			fatalf("check-bench: %v", err)
		}
		_, rerr := experiments.ReadBenchReport(f)
		if cerr := f.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			fatalf("check-bench %s: %v", *checkBench, rerr)
		}
		outln("check-bench: " + *checkBench + " OK")
		return
	}
	if *profile {
		obs.EnableProfiling()
	}
	if *metrics {
		defer dumpMetrics()
	}

	if *list {
		for _, name := range bench.Names() {
			if _, err := fmt.Println(name); err != nil {
				fatalf("write: %v", err)
			}
		}
		return
	}

	cfg := experiments.Config{
		Seed:            *seed,
		Threads:         *threads,
		Cols:            *cols,
		Reps:            *reps,
		Warmup:          *warmup,
		Reorder:         *doReorder != "",
		ReorderStrategy: *doReorder,
		ReorderWindow:   *window,
		ShardOrder:      *shardOrder,
	}
	if *shards != "" {
		for _, s := range strings.Split(*shards, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fatalf("bad -shards value %q", s)
			}
			cfg.ShardCounts = append(cfg.ShardCounts, v)
		}
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *alphas != "" {
		for _, s := range strings.Split(*alphas, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatalf("bad -alphas value %q: %v", s, err)
			}
			cfg.Alphas = append(cfg.Alphas, v)
		}
	}

	var w io.Writer = os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		outFile = f
		w = io.MultiWriter(os.Stdout, f)
	}

	results := map[string]interface{}{}
	selected := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	all := selected["all"]
	ran := false

	if all || selected["table1"] {
		ran = true
		rows, err := experiments.Table1(cfg)
		if err != nil {
			fatalf("table1: %v", err)
		}
		experiments.WriteTable1(w, rows)
		results["table1"] = rows
		blankLine(w)
	}
	if all || selected["table2"] {
		ran = true
		rows, err := experiments.Table2(cfg)
		if err != nil {
			fatalf("table2: %v", err)
		}
		experiments.WriteTable2(w, rows)
		results["table2"] = rows
		blankLine(w)
	}
	if all || selected["fig2"] {
		ran = true
		series, err := experiments.Fig2(cfg)
		if err != nil {
			fatalf("fig2: %v", err)
		}
		experiments.WriteFig2(w, series)
		results["fig2"] = series
		blankLine(w)
	}
	if all || selected["table3"] {
		ran = true
		rows, err := experiments.Table3(cfg)
		if err != nil {
			fatalf("table3: %v", err)
		}
		experiments.WriteTable3(w, rows)
		results["table3"] = rows
		blankLine(w)
	}
	if all || selected["table4"] {
		ran = true
		rows, err := experiments.Table4(cfg)
		if err != nil {
			fatalf("table4: %v", err)
		}
		experiments.WriteTable4(w, rows)
		results["table4"] = rows
		blankLine(w)
	}
	if all || selected["verify"] {
		ran = true
		rows, err := experiments.Verify(cfg, *verifyTrials)
		if err != nil {
			fatalf("verify: %v", err)
		}
		experiments.WriteVerify(w, rows)
		results["verify"] = rows
		blankLine(w)
	}
	if all || selected["bench"] {
		ran = true
		report, err := experiments.BenchJSON(cfg)
		if err != nil {
			fatalf("bench: %v", err)
		}
		experiments.WriteBench(w, report)
		if *benchOut != "" {
			f, err := os.Create(*benchOut)
			if err != nil {
				fatalf("create %s: %v", *benchOut, err)
			}
			werr := experiments.WriteBenchReport(f, report)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fatalf("write %s: %v", *benchOut, werr)
			}
			outln("bench report: " + *benchOut)
		}
		results["bench"] = report
		blankLine(w)
	}
	if all || selected["table5"] {
		ran = true
		rows, err := experiments.Table5(cfg)
		if err != nil {
			fatalf("table5: %v", err)
		}
		experiments.WriteTable5(w, rows)
		results["table5"] = rows
		blankLine(w)
	}
	if selected["gnnsuite"] { // extension: per-architecture forward-pass comparison
		ran = true
		rows, err := experiments.GNNSuite(cfg)
		if err != nil {
			fatalf("gnnsuite: %v", err)
		}
		experiments.WriteGNNSuite(w, rows)
		results["gnnsuite"] = rows
		blankLine(w)
	}
	if selected["scaling"] { // extension: strong-scaling sweep
		ran = true
		series, err := experiments.Scaling(cfg)
		if err != nil {
			fatalf("scaling: %v", err)
		}
		experiments.WriteScaling(w, series)
		results["scaling"] = series
		blankLine(w)
	}
	if selected["buildscale"] { // extension: Lemma 1 construction-scaling check
		ran = true
		points, err := experiments.BuildScale(cfg, nil)
		if err != nil {
			fatalf("buildscale: %v", err)
		}
		experiments.WriteBuildScale(w, points)
		results["buildscale"] = points
		blankLine(w)
	}
	if selected["memwall"] { // extension: Sec. VIII memory-wall study on the Reddit analog
		ran = true
		rows, err := experiments.MemWall(cfg)
		if err != nil {
			fatalf("memwall: %v", err)
		}
		experiments.WriteMemWall(w, rows)
		results["memwall"] = rows
		blankLine(w)
	}
	if selected["ablation"] { // not part of "all": it is a design study, not a paper table
		ran = true
		rows, err := experiments.Ablation(cfg)
		if err != nil {
			fatalf("ablation: %v", err)
		}
		experiments.WriteAblation(w, rows)
		results["ablation"] = rows
		blankLine(w)
	}
	if outFile != nil {
		// A close failure can drop buffered table rows: report it and
		// exit non-zero rather than pretend the run completed.
		if err := outFile.Close(); err != nil {
			fatalf("close %s: %v", *out, err)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fatalf("marshal results: %v", err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatalf("write %s: %v", *jsonOut, err)
		}
	}
	if !ran {
		fatalf("no experiment selected (got -exp %q); valid: table1,table2,fig2,table3,table4,table5,verify,bench,ablation,gnnsuite,scaling,memwall,buildscale,all", *exps)
	}
}

// dumpMetrics writes the obs snapshot to stderr (not stdout, so result
// tables stay machine-separable from diagnostics).
func dumpMetrics() {
	if err := obs.WriteJSON(os.Stderr); err != nil {
		fatalf("metrics: %v", err)
	}
}

// outln writes one status line to stdout, failing loudly like the
// table writers do.
func outln(s string) {
	if _, err := fmt.Println(s); err != nil {
		fatalf("write: %v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	_, _ = fmt.Fprintf(os.Stderr, "cbmbench: "+format+"\n", args...)
	os.Exit(1)
}

// blankLine separates experiment sections. Any write failure aborts the
// run: a truncated -o report must not look like a completed one.
func blankLine(w io.Writer) {
	if _, err := fmt.Fprintln(w); err != nil {
		fatalf("write: %v", err)
	}
}
