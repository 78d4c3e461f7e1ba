// Command gcnserve drives the concurrent batched-inference engine
// (gnn.Engine) under synthetic load and reports per-request latency
// percentiles: a fixed worker count fires back-to-back full-graph GCN2
// inference requests at one engine per backend, each request leasing a
// pooled execution context, and the report compares CSR against CBM at
// the same concurrency. It is the serving-side companion of gcninfer's
// one-shot timing.
//
// With -batch the comparison changes axis: the CBM backend served
// unbatched versus through the cross-request micro-batching scheduler
// (requests coalesced into one wide SpMM per flush), swept over
// -concurrencies with the two modes interleaved ABBA per level so
// machine drift biases neither side.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/xrand"
)

func main() {
	var (
		dataset     = flag.String("dataset", "ca-hepph", "registered dataset analog (see cbmbench -list)")
		alpha       = flag.Int("alpha", 4, "CBM edge-pruning threshold α")
		cols        = flag.Int("cols", 64, "feature/hidden width of the served model")
		classes     = flag.Int("classes", 16, "output class width of the served model")
		threads     = flag.Int("threads", 1, "thread budget per admitted request")
		maxInFlight = flag.Int("max-in-flight", 0, "execution slots per engine (0 = concurrency)")
		concurrency = flag.Int("concurrency", 8, "client worker goroutines")
		requests    = flag.Int("requests", 40, "requests per worker (after one warm-up each)")
		seed        = flag.Uint64("seed", 1, "generator seed")
		metrics     = flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
		shards      = flag.Int("shards", 0, "serve the CBM side through the row-partitioned sharded backend (0/1 = unsharded)")
		shardOrder  = flag.String("shard-order", "", "row ordering before the shard cut: natural (default), minhash or rcm")

		batch         = flag.Bool("batch", false, "compare unbatched vs micro-batched CBM serving instead of CSR vs CBM")
		batchWindow   = flag.Duration("batch-window", 250*time.Microsecond, "micro-batch flush window")
		batchCols     = flag.Int("batch-cols", 0, "micro-batch column budget (0 = concurrency × cols)")
		concurrencies = flag.String("concurrencies", "", "comma-separated concurrency sweep for -batch (default: the -concurrency level)")
	)
	flag.Parse()
	if *concurrency < 1 || *requests < 1 {
		fatal(fmt.Errorf("need concurrency ≥ 1 and requests ≥ 1, got %d and %d", *concurrency, *requests))
	}
	slots := *maxInFlight
	if slots <= 0 {
		slots = *concurrency
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
	// The served CBM-side backend: unsharded by default; with -shards
	// the row-partitioned representation, whose per-shard lease pool the
	// engine provisions to its admission bound.
	var served gnn.Adjacency
	if *shards > 1 {
		sb, err := gnn.NewShardedCBMBackend(a,
			shard.Options{Shards: *shards, CBM: cbm.Options{Alpha: *alpha}}, *shardOrder)
		if err != nil {
			fatal(err)
		}
		served = sb.Backend
		halo := 0
		for _, h := range sb.Stats.HaloNNZ {
			halo += h
		}
		order := *shardOrder
		if order == "" {
			order = "natural"
		}
		outf("shards: %d (order %q, halo nnz %d, imbalance %d‰)\n",
			sb.Stats.Shards, order, halo, sb.Stats.ImbalancePermille)
	} else {
		cbmBackend, stats, err := gnn.NewCBMBackend(a, cbm.Options{Alpha: *alpha, Threads: 0})
		if err != nil {
			fatal(err)
		}
		served = cbmBackend
		outf("CBM build: %v (%d branches)\n", stats.Total(), cbmBackend.M.NumBranches())
	}

	model := gnn.NewGCN2(*cols, *cols, *classes, *seed+7)
	rng := xrand.New(*seed + 11)
	x := dense.New(a.Rows, *cols)
	rng.FillUniform(x.Data)

	if *batch {
		levels := []int{*concurrency}
		if *concurrencies != "" {
			levels = levels[:0]
			for _, s := range strings.Split(*concurrencies, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || v < 1 {
					fatal(fmt.Errorf("bad -concurrencies value %q", s))
				}
				levels = append(levels, v)
			}
		}
		batchSweep(model, served, x, levels, *requests, *threads, *maxInFlight, *batchWindow, *batchCols, *cols)
	} else {
		cfg := gnn.EngineConfig{MaxInFlight: slots, Threads: *threads}
		outf("engine: %d workers × %d requests, %d slots, %d thread(s)/request\n",
			*concurrency, *requests, slots, cfg.Threads)
		csrStats := serve(gnn.NewEngine(model, csrBackend, cfg), x, *concurrency, *requests)
		cbmStats := serve(gnn.NewEngine(model, served, cfg), x, *concurrency, *requests)
		outf("%-8s %10s %10s %10s %10s %12s\n", "backend", "mean_ms", "p50_ms", "p99_ms", "max_ms", "req/s")
		report("CSR", csrStats)
		report("CBM", cbmStats)
		outf("speedup (mean): %.2f×\n", csrStats.mean()/cbmStats.mean())
	}

	if *metrics {
		if err := obs.WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// batchSweep compares unbatched vs micro-batched CBM serving at each
// concurrency level. The two modes run interleaved ABBA (unbatched,
// batched, batched, unbatched) so a machine-load drift across the
// sweep biases neither; the batched engine gets ONE execution slot —
// its concurrency comes from coalescing requests, not parallel slots.
func batchSweep(model gnn.Model, backend gnn.Adjacency, x *dense.Matrix, levels []int, requests, threads, maxInFlight int, window time.Duration, budget, cols int) {
	outf("batch sweep: window=%v, budget=%s, %d requests/worker per half-round\n",
		window, budgetLabel(budget), requests)
	outf("%-6s %-9s %10s %10s %10s %10s %12s\n", "conc", "mode", "mean_ms", "p50_ms", "p99_ms", "max_ms", "req/s")
	for _, conc := range levels {
		slots := maxInFlight
		if slots <= 0 {
			slots = conc
		}
		ub := gnn.NewEngine(model, backend, gnn.EngineConfig{MaxInFlight: slots, Threads: threads})
		maxCols := budget
		if maxCols <= 0 {
			maxCols = conc * cols
		}
		bb := gnn.NewEngine(model, backend, gnn.EngineConfig{
			MaxInFlight: 1,
			Threads:     threads,
			Batch:       gnn.BatchConfig{Window: window, MaxCols: maxCols},
		})
		flushes0 := obs.CounterValue(obs.CounterBatchFlushes)
		bcols0 := obs.CounterValue(obs.CounterBatchCols)
		// ABBA: half the rounds lead with each mode.
		var plain, batched loadStats
		plain.merge(serve(ub, x, conc, requests))
		batched.merge(serve(bb, x, conc, requests))
		batched.merge(serve(bb, x, conc, requests))
		plain.merge(serve(ub, x, conc, requests))
		meanBatchCols := 0.0
		if df := obs.CounterValue(obs.CounterBatchFlushes) - flushes0; df > 0 {
			meanBatchCols = float64(obs.CounterValue(obs.CounterBatchCols)-bcols0) / float64(df)
		}
		bb.Close()
		reportMode(conc, "plain", plain)
		reportMode(conc, "batched", batched)
		outf("conc=%d batched speedup (mean): %.2f×, p99: %.2f×, mean batch cols: %.0f\n",
			conc,
			plain.mean()/batched.mean(),
			bench.Quantile(plain.lat, 0.99)/bench.Quantile(batched.lat, 0.99),
			meanBatchCols)
	}
}

func budgetLabel(budget int) string {
	if budget <= 0 {
		return "conc×cols"
	}
	return strconv.Itoa(budget)
}

// loadStats holds per-request latencies (seconds) and the wall-clock
// span of the whole run.
type loadStats struct {
	lat  []float64
	wall float64
}

func (s loadStats) mean() float64 { return bench.Summarize(s.lat).Seconds() }

// merge pools another run's latencies into s (walls add: req/s stays
// total requests over total measured time).
func (s *loadStats) merge(o loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.wall += o.wall
}

// serve fires concurrency workers at the engine, each issuing one
// unmeasured warm-up request (filling its slot's arena) followed by
// requests timed ones, and returns the pooled latencies.
func serve(e *gnn.Engine, x *dense.Matrix, concurrency, requests int) loadStats {
	perWorker := make([][]float64, concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := dense.New(e.Rows(), e.OutDim())
			e.InferTo(out, x) // warm-up, untimed
			lat := make([]float64, requests)
			for r := range lat {
				t0 := time.Now()
				e.InferTo(out, x)
				lat[r] = time.Since(t0).Seconds()
			}
			perWorker[w] = lat
		}(w)
	}
	wg.Wait()
	s := loadStats{wall: time.Since(start).Seconds()}
	for _, lat := range perWorker {
		s.lat = append(s.lat, lat...)
	}
	return s
}

func report(name string, s loadStats) {
	t := bench.Summarize(s.lat)
	ms := func(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }
	outf("%-8s %10s %10s %10s %10s %12.1f\n", name,
		ms(t.Seconds()),
		ms(bench.Quantile(s.lat, 0.5)),
		ms(bench.Quantile(s.lat, 0.99)),
		ms(bench.Quantile(s.lat, 1.0)),
		float64(len(s.lat))/s.wall)
}

func reportMode(conc int, mode string, s loadStats) {
	t := bench.Summarize(s.lat)
	ms := func(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }
	outf("%-6d %-9s %10s %10s %10s %10s %12.1f\n", conc, mode,
		ms(t.Seconds()),
		ms(bench.Quantile(s.lat, 0.5)),
		ms(bench.Quantile(s.lat, 0.99)),
		ms(bench.Quantile(s.lat, 1.0)),
		float64(len(s.lat))/s.wall)
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "gcnserve:", err)
	os.Exit(1)
}

// outf writes a formatted line to stdout and exits non-zero if the
// write fails, so a broken pipe cannot silently truncate the report.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "gcnserve: write:", err)
		os.Exit(1)
	}
}
