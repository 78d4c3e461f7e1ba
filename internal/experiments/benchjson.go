package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// BenchSchema versions the machine-readable benchmark report; bump it
// whenever a field changes meaning, so downstream trajectory tooling
// can reject files it does not understand. v2 added the explicit
// two-stage vs fused execution-plan timings (cbm_two_stage, cbm_fused,
// fused_speedup, fused_s); v3 added end-to-end engine inference
// latency (mean ± σ and p99 per request) under concurrency {1, 4, 8};
// v4 added concurrency 16 plus the micro-batched CBM serving column
// (cbm_batched, batched_speedup, mean_batch_cols — batched vs
// unbatched measured as their own drift-immune pair); v5 added the
// calibrated selector's decision (chosen_plan, selector_speedup — the
// selected plan's measured mean over the two-stage reference) and the
// forced CSR-plan timing (cbm_csr_plan), with all three forced plans
// measured in one interleaved rotation and stage splits attributed
// through per-plan scoped obs.Recorders; v6 added the similarity
// reordering block (reorder: permutation build time, banded
// compression ratio before/after reordering, and the paired
// reordered-vs-raw SpMM speedup under the band) plus the `reordered`
// flag marking whether the headline numbers ran on the permuted graph;
// v7 added the ordering strategy name to the reorder block and the
// sharded block (shard: per shard count, the paired
// sharded-vs-unsharded CBM MulTo timings plus the partition's halo
// nonzero total and nnz imbalance); v8 dropped the fused plan
// (cbm_fused, fused_speedup, fused_s) and selector_speedup with the
// plan space they measured, and added the machine record (nproc,
// gomaxprocs) next to threads, which is clamped to nproc; v9 dropped
// the reorder block, the reordered flag and the shard block with the
// similarity reordering and sharded serving they measured; v10 dropped
// cbm_two_stage, cbm_csr_plan and chosen_plan with the CSR plan: MulTo
// runs the two-stage plan on every matrix; v11 dropped stage_split with
// the update stage: the tree update rides in the delta SpMM's store, so
// a multiply has one stage.
const BenchSchema = "cbm-bench/v11"

// BenchTiming is bench.Timing flattened to seconds for JSON.
type BenchTiming struct {
	Reps        int     `json:"reps"`
	MeanSeconds float64 `json:"mean_s"`
	StdSeconds  float64 `json:"std_s"`
}

func toBenchTiming(t bench.Timing) BenchTiming {
	return BenchTiming{Reps: t.Reps, MeanSeconds: t.Mean.Seconds(), StdSeconds: t.Std.Seconds()}
}

// BenchDataset is one dataset's row of the benchmark report. CBMMul is
// the production entry point (MulTo). Both timings come from one
// interleaved rotation, so Speedup is a paired ratio.
type BenchDataset struct {
	Name             string      `json:"name"`
	Nodes            int         `json:"nodes"`
	Edges            int         `json:"edges"`
	Alpha            int         `json:"alpha"`
	CompressionRatio float64     `json:"compression_ratio"`
	BuildSeconds     float64     `json:"build_s"`
	CSRSpMM          BenchTiming `json:"csr_spmm"`
	CBMMul           BenchTiming `json:"cbm_mul"`
	// Speedup is CSR SpMM over CBM MulTo.
	Speedup float64 `json:"speedup"`
	// Inference is the end-to-end serving comparison: per-request GCN2
	// engine latency at each probed concurrency level.
	Inference []BenchInference `json:"inference"`
}

// BenchLatency summarizes per-request end-to-end inference latency
// (seconds): mean ± σ over all measured requests plus the p99 tail.
type BenchLatency struct {
	Requests    int     `json:"requests"`
	MeanSeconds float64 `json:"mean_s"`
	StdSeconds  float64 `json:"std_s"`
	P99Seconds  float64 `json:"p99_s"`
}

// BenchInference is one concurrency level of the serving benchmark:
// the same two-layer GCN served through gnn.Engine on the CSR and CBM
// backends, single-threaded requests, Concurrency simultaneous
// callers. Speedup is CSR mean latency over CBM mean latency.
//
// CBMBatched is the CBM backend served through the micro-batching
// engine (requests coalesced into one wide SpMM per flush), measured
// in its own paired run against the unbatched CBM engine so machine
// drift cannot masquerade as a batching win: BatchedSpeedup is that
// run's unbatched mean over the batched mean (> 1 means batching
// wins), and MeanBatchCols is the mean wide-multiply width per flush
// (from the obs batch counters) — how much column amortization the
// level actually achieved.
type BenchInference struct {
	Concurrency    int          `json:"concurrency"`
	CSR            BenchLatency `json:"csr"`
	CBM            BenchLatency `json:"cbm"`
	Speedup        float64      `json:"speedup"`
	CBMBatched     BenchLatency `json:"cbm_batched"`
	BatchedSpeedup float64      `json:"batched_speedup"`
	MeanBatchCols  float64      `json:"mean_batch_cols"`
}

// BenchReport is the top-level BENCH_cbm.json document. Threads is the
// worker count every kernel measurement ran at, never above NProc (the
// cores present); GOMAXPROCS records the Go scheduler's limit.
type BenchReport struct {
	Schema     string         `json:"schema"`
	Seed       uint64         `json:"seed"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Threads    int            `json:"threads"`
	Cols       int            `json:"cols"`
	Reps       int            `json:"reps"`
	Warmup     int            `json:"warmup"`
	Datasets   []BenchDataset `json:"datasets"`
}

// BenchJSON runs the machine-readable benchmark: for each dataset it
// compresses at the paper's best parallel α, measures CSR SpMM vs. CBM
// MulTo through bench.Measure (mean ± σ). The thread count is clamped
// to the cores present: more workers than cores only time the
// scheduler. The result feeds the repository's
// performance trajectory.
func BenchJSON(cfg Config) (*BenchReport, error) {
	cfg = cfg.Defaults()
	nproc := runtime.NumCPU()
	if cfg.Threads > nproc {
		cfg.Threads = nproc
	}
	ds, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	report := &BenchReport{
		Schema:     BenchSchema,
		Seed:       cfg.Seed,
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threads:    cfg.Threads,
		Cols:       cfg.Cols,
		Reps:       cfg.Reps,
		Warmup:     cfg.Warmup,
	}
	rng := xrand.New(cfg.Seed + 5000)
	for _, d := range ds {
		a := d.Generate(cfg.Seed)
		n := a.Rows
		alpha := d.Paper.BestAlphaPar

		b := dense.New(n, cfg.Cols)
		rng.FillUniform(b.Data)
		c := dense.New(n, cfg.Cols)

		opt := cbm.Options{Alpha: alpha, Threads: cfg.Threads}

		start := time.Now()
		m, _, err := cbm.Compress(a, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s: %w", d.Name, err)
		}
		build := time.Since(start)

		// The headline pair (CSR SpMM vs CBM MulTo) is measured in one
		// interleaved rotation, so machine drift cannot masquerade as a
		// format difference.
		tms := bench.MeasureInterleaved(cfg.Reps, cfg.Warmup,
			func() { kernels.SpMMTo(c, a, b, cfg.Threads) },
			func() { m.MulTo(c, b, cfg.Threads) },
		)
		tCSR, tCBM := tms[0], tms[1]

		speedup := math.NaN()
		if tCBM.Seconds() > 0 {
			speedup = tCSR.Seconds() / tCBM.Seconds()
		}
		inference, err := benchInference(a, opt, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s inference: %w", d.Name, err)
		}
		report.Datasets = append(report.Datasets, BenchDataset{
			Name:             d.Name,
			Nodes:            n,
			Edges:            a.NNZ() / 2,
			Alpha:            alpha,
			CompressionRatio: float64(a.FootprintBytes()) / float64(m.FootprintBytes()),
			BuildSeconds:     build.Seconds(),
			CSRSpMM:          toBenchTiming(tCSR),
			CBMMul:           toBenchTiming(tCBM),
			Speedup:          speedup,
			Inference:        inference,
		})
	}
	return report, nil
}

// inferenceConcurrency are the serving concurrency levels probed by
// the latency section (v4 added 16, where batching has the most
// columns to coalesce).
var inferenceConcurrency = [4]int{1, 4, 8, 16}

// inferenceBatchWindow is the batched engine's flush window — the
// fallback bound when concurrent arrivals don't fill the column budget
// outright. Small against the per-request forward pass, so the conc=1
// level (every batch a singleton) is not window-dominated.
const inferenceBatchWindow = 250 * time.Microsecond

// inferenceClasses is the output width of the benchmark GCN.
const inferenceClasses = 16

// inferenceRounds caps the serving rounds per concurrency level: each
// round fires `concurrency` simultaneous requests per backend, so the
// sample count already scales with the level and the kernel reps would
// make regeneration needlessly slow.
func inferenceRounds(reps int) int {
	if reps > 10 {
		return 10
	}
	return reps
}

// benchInference measures end-to-end serving latency for one dataset:
// a two-layer GCN (cols→cols→16) behind gnn.Engine on the CSR and the
// CBM backend, single-threaded requests, at each probed concurrency
// level. Both backends are driven through bench.MeasurePaired — rounds
// alternate which backend goes first, so machine drift biases neither
// side — while per-request latencies are collected inside the rounds
// (warm-up rounds discarded). A second paired run at each level pits
// the unbatched CBM engine against the micro-batching one (column
// budget = concurrency × cols, so a full round coalesces into one
// wide SpMM) for the v4 batched columns.
func benchInference(adj *sparse.CSR, opt cbm.Options, cfg Config, rng *xrand.RNG) ([]BenchInference, error) {
	csrB, err := gnn.NewCSRBackend(adj)
	if err != nil {
		return nil, err
	}
	cbmB, _, err := gnn.NewCBMBackend(adj, opt)
	if err != nil {
		return nil, err
	}
	model := gnn.NewGCN2(cfg.Cols, cfg.Cols, inferenceClasses, cfg.Seed+7000)
	x := dense.New(adj.Rows, cfg.Cols)
	rng.FillUniform(x.Data)

	rounds := inferenceRounds(cfg.Reps)
	warm := cfg.Warmup
	out := make([]BenchInference, 0, len(inferenceConcurrency))
	for _, conc := range inferenceConcurrency {
		ec := gnn.NewEngine(model, csrB, gnn.EngineConfig{MaxInFlight: conc, Threads: 1})
		eb := gnn.NewEngine(model, cbmB, gnn.EngineConfig{MaxInFlight: conc, Threads: 1})
		bufs := make([]*dense.Matrix, conc)
		for i := range bufs {
			bufs[i] = dense.New(adj.Rows, inferenceClasses)
		}
		// fire launches one round: conc concurrent requests against e,
		// returning each request's wall-clock latency.
		fire := func(e *gnn.Engine) []float64 {
			lats := make([]float64, conc)
			var wg sync.WaitGroup
			wg.Add(conc)
			for w := 0; w < conc; w++ {
				go func(w int) {
					defer wg.Done()
					start := time.Now()
					e.InferTo(bufs[w], x)
					lats[w] = time.Since(start).Seconds()
				}(w)
			}
			wg.Wait()
			return lats
		}
		var csrLat, cbmLat []float64
		csrRound, cbmRound := 0, 0
		bench.MeasurePaired(rounds, warm,
			func() {
				l := fire(ec)
				if csrRound++; csrRound > warm {
					csrLat = append(csrLat, l...)
				}
			},
			func() {
				l := fire(eb)
				if cbmRound++; cbmRound > warm {
					cbmLat = append(cbmLat, l...)
				}
			},
		)
		csr, cbmL := toBenchLatency(csrLat), toBenchLatency(cbmLat)
		speedup := math.NaN()
		if cbmL.MeanSeconds > 0 {
			speedup = csr.MeanSeconds / cbmL.MeanSeconds
		}

		// Second pair: unbatched vs micro-batched CBM serving. One
		// execution slot on the batched side — its concurrency comes
		// from coalescing, not parallel slots.
		ebatch := gnn.NewEngine(model, cbmB, gnn.EngineConfig{
			MaxInFlight: 1,
			Threads:     1,
			Batch: gnn.BatchConfig{
				Window:  inferenceBatchWindow,
				MaxCols: conc * cfg.Cols,
			},
		})
		var plainLat, batchLat []float64
		plainRound, batchRound := 0, 0
		flushes0 := obs.CounterValue(obs.CounterBatchFlushes)
		bcols0 := obs.CounterValue(obs.CounterBatchCols)
		bench.MeasurePaired(rounds, warm,
			func() {
				l := fire(eb)
				if plainRound++; plainRound > warm {
					plainLat = append(plainLat, l...)
				}
			},
			func() {
				l := fire(ebatch)
				if batchRound++; batchRound > warm {
					batchLat = append(batchLat, l...)
				}
			},
		)
		meanBatchCols := 0.0
		if df := obs.CounterValue(obs.CounterBatchFlushes) - flushes0; df > 0 {
			meanBatchCols = float64(obs.CounterValue(obs.CounterBatchCols)-bcols0) / float64(df)
		}
		ebatch.Close()
		plain, batched := toBenchLatency(plainLat), toBenchLatency(batchLat)
		batchedSpeedup := math.NaN()
		if batched.MeanSeconds > 0 {
			batchedSpeedup = plain.MeanSeconds / batched.MeanSeconds
		}

		out = append(out, BenchInference{
			Concurrency:    conc,
			CSR:            csr,
			CBM:            cbmL,
			Speedup:        speedup,
			CBMBatched:     batched,
			BatchedSpeedup: batchedSpeedup,
			MeanBatchCols:  meanBatchCols,
		})
	}
	return out, nil
}

func toBenchLatency(lat []float64) BenchLatency {
	t := bench.Summarize(lat)
	return BenchLatency{
		Requests:    len(lat),
		MeanSeconds: t.Mean.Seconds(),
		StdSeconds:  t.Std.Seconds(),
		P99Seconds:  bench.Quantile(lat, 0.99),
	}
}

// WriteBenchReport serializes the report as indented JSON.
func WriteBenchReport(w io.Writer, r *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses and structurally validates a benchmark report
// — the check half of cbmbench's -check-bench flag, and what keeps
// ci.sh's metrics smoke test honest.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var report BenchReport
	if err := dec.Decode(&report); err != nil {
		return nil, fmt.Errorf("experiments: decoding bench report: %w", err)
	}
	if report.Schema != BenchSchema {
		return nil, fmt.Errorf("experiments: bench report schema %q, want %q", report.Schema, BenchSchema)
	}
	if report.NProc < 1 || report.GOMAXPROCS < 1 {
		return nil, fmt.Errorf("experiments: bench report lacks the machine record (nproc %d, gomaxprocs %d)",
			report.NProc, report.GOMAXPROCS)
	}
	if report.Threads < 1 || report.Threads > report.NProc {
		return nil, fmt.Errorf("experiments: bench report ran %d threads on %d cores", report.Threads, report.NProc)
	}
	if len(report.Datasets) == 0 {
		return nil, fmt.Errorf("experiments: bench report has no datasets")
	}
	for _, d := range report.Datasets {
		if d.Name == "" || d.Nodes <= 0 {
			return nil, fmt.Errorf("experiments: bench report entry %+v is incomplete", d)
		}
		if d.CBMMul.MeanSeconds <= 0 || d.CSRSpMM.MeanSeconds <= 0 {
			return nil, fmt.Errorf("experiments: bench report entry %s has non-positive timings", d.Name)
		}
		if len(d.Inference) == 0 {
			return nil, fmt.Errorf("experiments: bench report entry %s has no inference latencies", d.Name)
		}
		for _, inf := range d.Inference {
			if inf.Concurrency <= 0 || inf.CSR.Requests <= 0 || inf.CBM.Requests <= 0 ||
				inf.CSR.MeanSeconds <= 0 || inf.CBM.MeanSeconds <= 0 ||
				inf.CSR.P99Seconds <= 0 || inf.CBM.P99Seconds <= 0 {
				return nil, fmt.Errorf("experiments: bench report entry %s has a malformed inference block (concurrency %d)",
					d.Name, inf.Concurrency)
			}
			if inf.CBMBatched.Requests <= 0 || inf.CBMBatched.MeanSeconds <= 0 ||
				inf.CBMBatched.P99Seconds <= 0 || inf.MeanBatchCols <= 0 {
				return nil, fmt.Errorf("experiments: bench report entry %s has a malformed batched-serving block (concurrency %d)",
					d.Name, inf.Concurrency)
			}
		}
	}
	return &report, nil
}

// WriteBench renders the report as a human-readable table (the stdout
// companion of the JSON file).
func WriteBench(w io.Writer, r *BenchReport) {
	t := &bench.Table{Header: []string{
		"Graph", "Alpha", "ratio", "CSR SpMM", "CBM Mul", "spd",
	}}
	for _, d := range r.Datasets {
		t.AddRow(d.Name,
			fmt.Sprintf("%d", d.Alpha),
			fmt.Sprintf("%.2f", d.CompressionRatio),
			fmt.Sprintf("%.4f (± %.4f)", d.CSRSpMM.MeanSeconds, d.CSRSpMM.StdSeconds),
			fmt.Sprintf("%.4f (± %.4f)", d.CBMMul.MeanSeconds, d.CBMMul.StdSeconds),
			fmt.Sprintf("%.2f", d.Speedup),
		)
	}
	fmt.Fprintf(w, "Bench — machine-readable per-dataset timings (threads=%d nproc=%d gomaxprocs=%d cols=%d reps=%d)\n",
		r.Threads, r.NProc, r.GOMAXPROCS, r.Cols, r.Reps)
	fmt.Fprint(w, t.String())

	inf := &bench.Table{Header: []string{
		"Graph", "conc", "CSR mean", "CSR p99", "CBM mean", "CBM p99", "spd",
		"CBMbatch mean", "CBMbatch p99", "bspd", "bcols",
	}}
	for _, d := range r.Datasets {
		for _, b := range d.Inference {
			inf.AddRow(d.Name,
				fmt.Sprintf("%d", b.Concurrency),
				fmt.Sprintf("%.4f (± %.4f)", b.CSR.MeanSeconds, b.CSR.StdSeconds),
				fmt.Sprintf("%.4f", b.CSR.P99Seconds),
				fmt.Sprintf("%.4f (± %.4f)", b.CBM.MeanSeconds, b.CBM.StdSeconds),
				fmt.Sprintf("%.4f", b.CBM.P99Seconds),
				fmt.Sprintf("%.2f", b.Speedup),
				fmt.Sprintf("%.4f (± %.4f)", b.CBMBatched.MeanSeconds, b.CBMBatched.StdSeconds),
				fmt.Sprintf("%.4f", b.CBMBatched.P99Seconds),
				fmt.Sprintf("%.2f", b.BatchedSpeedup),
				fmt.Sprintf("%.0f", b.MeanBatchCols),
			)
		}
	}
	if len(inf.Rows) > 0 {
		fmt.Fprint(w, "\nServing — per-request GCN2 engine latency (threads/request=1; batch = micro-batched CBM)\n")
		fmt.Fprint(w, inf.String())
	}
}
