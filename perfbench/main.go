// Command perfbench is the repository's end-to-end benchmark. It drives
// the CBM serving and propagation paths only through the public
// functions of the repo's packages, checks every op's output, and
// prints one JSON result line. See README.md for the workloads and
// metrics, and run.py for how it is built and invoked:
//
//	python3 perfbench/run.py --workload gcn-collab --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

const (
	// minOps is the op count a timed phase needs so that p90 has minTail
	// samples beyond it; a phase runs past its duration (up to 3×) to
	// reach it.
	minOps = 100
	// Set-up repeats at least minSetupReps times, and more while the
	// repeats have taken less than setupBudget (at most maxSetupReps).
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 3 * time.Second
	// burstOps is the number of workload ops per client between two
	// replays of the traced phase.
	burstOps = 2
	// probeReps is the number of 1-thread/2-thread aggregate pairs of
	// the parallel speed-up probe.
	probeReps = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: gcn-collab, prop-collab or serve-pubmed-batched")
		seed     = flag.Uint64("seed", 1, "seed of the generated graph, weights and inputs")
		seconds  = flag.Int("seconds", 25, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
		traceDir = flag.String("trace-out", "", "directory for the traced run's span file (empty = none)")
	)
	flag.Parse()
	s, err := lookup(*workload)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be ≥ 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil {
		err = s.checkCores(runtime.NumCPU())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &runner{spec: s, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	res, env, err := b.run(*trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range []any{map[string]any{"env": env}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runner holds one workload's generated inputs and served state.
type runner struct {
	spec    *spec
	seed    uint64
	seconds time.Duration

	graph *sparse.CSR
	xs    []*dense.Matrix
	in    *instance
	refs  []*dense.Matrix
	outs  []*dense.Matrix

	setupS                      []float64
	normS, candS, treeS, deltaS []float64
	attempted, failed           int
	firstErr                    error
}

// generate makes the graph, model and inputs from the seed, outside
// all timing.
func (r *runner) generate() error {
	d, err := bench.Get(r.spec.dataset)
	if err != nil {
		return err
	}
	r.graph = d.Generate(r.seed)
	rng := xrand.New(r.seed + 11)
	for i := 0; i < numInputs; i++ {
		x := dense.New(r.graph.Rows, r.spec.f)
		rng.FillUniform(x.Data)
		r.xs = append(r.xs, x)
	}
	return nil
}

// setupAll repeats set-up and keeps the last instance; the medians of
// the repeats are the reported set-up times.
func (r *runner) setupAll() error {
	var model *gnn.GCN2
	if r.spec.engine {
		model = gnn.NewGCN2(r.spec.f, r.spec.h, r.spec.c, r.seed+7)
	}
	var spent time.Duration
	for len(r.setupS) < minSetupReps || (spent < setupBudget && len(r.setupS) < maxSetupReps) {
		if r.in != nil {
			r.in.close()
			r.in = nil
		}
		in, d, err := setup(r.spec, r.graph, model, r.xs[0])
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.in = in
		spent += d
		r.setupS = append(r.setupS, d.Seconds())
		r.normS = append(r.normS, in.normalize.Seconds())
		r.candS = append(r.candS, in.build.CandidateTime.Seconds())
		r.treeS = append(r.treeS, in.build.TreeTime.Seconds())
		r.deltaS = append(r.deltaS, in.build.DeltaTime.Seconds())
	}
	return nil
}

// phase is what one closed-loop phase measured.
type phase struct {
	lat     []float64 // per-op latency, seconds
	wall    time.Duration
	check   time.Duration // output checks, summed over clients
	cpu     time.Duration
	mallocs uint64
	steal   float64
}

func (p phase) ops() int { return len(p.lat) }

// throughput is ops per second of the phase with the clients' output
// checks taken out (exact for one client).
func (p phase) throughput(clients int) float64 {
	busy := p.wall - p.check/time.Duration(clients)
	return float64(p.ops()) / busy.Seconds()
}

// loop drives the closed loop: every client sends ops back to back
// until d has passed and at least atLeast ops completed (at most 3·d),
// then checks each output bitwise against its reference outside the
// op's timing. With a tracer each op is also recorded as a span.
func (r *runner) loop(d time.Duration, atLeast int, tr *tracer) phase {
	clients := r.spec.clients
	lats := make([][]float64, clients)
	checks := make([]time.Duration, clients)
	fails := make([]int, clients)
	errs := make([]error, clients)
	var done atomic.Int64
	var ms0, ms1 runtime.MemStats
	if d > 0 {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
	}
	steal := startSteal()
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline, hard := t0.Add(d), t0.Add(3*d)
	if d == 0 {
		hard = t0.Add(time.Hour) // a burst: stop on the op count alone
	}
	runClients(clients, func(c int) {
		lat := make([]float64, 0, 1<<12)
		for k := 0; ; k++ {
			now := time.Now()
			if now.After(hard) || (!now.Before(deadline) && done.Load() >= int64(atLeast)) {
				break
			}
			i := (c + k) % len(r.xs)
			id := -1
			if tr != nil {
				id = tr.begin(tr.newOp(), spanOp, -1)
			}
			start := time.Now()
			err := r.in.safeOp(r.outs[c], r.xs[i])
			lat = append(lat, time.Since(start).Seconds())
			if tr != nil {
				tr.end(id)
			}
			done.Add(1)
			cs := time.Now()
			if err == nil && !bitwiseEqual(r.outs[c], r.refs[i]) {
				err = fmt.Errorf("client %d op %d: output differs from the solo reference of input %d", c, k, i)
			}
			checks[c] += time.Since(cs)
			if err != nil {
				fails[c]++
				errs[c] = err
			}
		}
		lats[c] = lat
	})
	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0, steal: steal.share()}
	if d > 0 {
		runtime.ReadMemStats(&ms1)
		p.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	for c := 0; c < clients; c++ {
		p.lat = append(p.lat, lats[c]...)
		p.check += checks[c]
		r.failed += fails[c]
		if errs[c] != nil && r.firstErr == nil {
			r.firstErr = errs[c]
		}
	}
	r.attempted += p.ops()
	return p
}

// prepare generates the inputs, sets up the workload, records the heap
// it holds and computes the references.
func (r *runner) prepare() (heapMiB float64, err error) {
	if err := r.generate(); err != nil {
		return 0, err
	}
	if err := r.setupAll(); err != nil {
		return 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	if r.refs, err = references(r.in, r.graph, r.xs); err != nil {
		return 0, fmt.Errorf("correctness gate: %w", err)
	}
	r.outs = newOuts(r.spec, r.graph.Rows)
	return heapMiB, nil
}

func (r *runner) run(traced bool, traceDir string) (result, map[string]any, error) {
	obs.Disable()
	heapMiB, err := r.prepare()
	if err != nil {
		return result{}, nil, err
	}
	defer r.in.close()
	plan := r.in.adj.M.PlanFor(r.spec.threads, r.aggWidths()[0])
	env := map[string]any{
		"workload": r.spec.name, "seed": r.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "cpu": cpuModel(),
		"threads": r.spec.threads, "clients": r.spec.clients, "plan": plan.String(),
		"setup_reps": len(r.setupS),
	}
	m := map[string]metric{}
	if !traced {
		p := r.loop(r.seconds, minOps, nil)
		p50 := median(p.lat)
		p90, err := percentile(p.lat, 0.9)
		if err != nil {
			return result{}, nil, fmt.Errorf("latency_p90_ms: %w", err)
		}
		m["setup_s"] = metric{median(r.setupS), "s"}
		m["throughput_ops_s"] = metric{p.throughput(r.spec.clients), "1/s"}
		m["latency_p50_ms"] = metric{p50 * 1e3, "ms"}
		m["latency_p90_ms"] = metric{p90 * 1e3, "ms"}
		m["cpu_ms_per_op"] = metric{(p.cpu - p.check).Seconds() * 1e3 / float64(p.ops()), "ms"}
		m["adj_mib"] = r.in.counts()["adj_mib"]
		m["heap_mib"] = metric{heapMiB, "MiB"}
		env["samples"] = p.ops()
		env["steal_share"] = p.steal
	} else {
		path, err := r.tracedRun(m, traceDir)
		if err != nil {
			return result{}, nil, err
		}
		env["trace_file"] = path
	}
	if r.firstErr != nil {
		env["first_failure"] = r.firstErr.Error()
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, env, nil
}

// aggWidths returns the operand width of each aggregation in one op.
func (r *runner) aggWidths() []int {
	if r.in.model == nil {
		return []int{r.spec.f, r.spec.f}
	}
	var w []int
	for _, l := range layers(r.in.model) {
		w = append(w, l.Lin.Out)
	}
	return w
}

// work returns the nonzeros the sparse kernels traverse and the bytes
// they move in one op, computed from the structure: per aggregation of
// width k, each traversed nonzero reads its index and value (8 B) and
// one operand row (4k B), every output row is written once (4k B), and
// a CBM plan's tree update reads the parent row and reads and writes
// the child row per tree edge (12k B). Diagonal reads are left out.
func (r *runner) work() (nnz, bytes float64) {
	n := float64(r.graph.Rows)
	for _, k := range r.aggWidths() {
		kb := 4 * float64(k)
		if r.in.adj.M.PlanFor(r.spec.threads, k) == cbm.StrategyCSR {
			nz := float64(r.in.binaryNNZ)
			nnz += nz
			bytes += nz*(8+kb) + n*kb
			continue
		}
		nz := float64(r.in.adj.M.NumDeltas())
		nnz += nz
		bytes += nz*(8+kb) + n*kb + float64(r.in.build.TreeEdges)*3*kb
	}
	return nnz, bytes
}

// tracedRun measures the per-layer metrics: half the time untraced,
// half traced, the traced half alternating bursts of workload ops with
// replayed ops whose layer calls are timed one by one.
func (r *runner) tracedRun(m map[string]metric, traceDir string) (string, error) {
	half := r.seconds / 2
	steal := startSteal()
	plain := r.loop(half, 1, nil)

	tr := newTracer()
	rec := obs.NewRecorder()
	rctx := exec.NewWithSink(r.spec.threads, rec)
	rout := dense.New(r.graph.Rows, r.spec.outCols())
	replay(newTracer(), rctx, r.in, rout, r.xs[0]) // warm the replay arena
	obs.Enable()
	obs.Reset()
	rec.Reset()
	var traced phase
	grows := int64(0)
	replays := 0
	t0 := time.Now()
	for time.Since(t0) < half || replays == 0 {
		g0 := obs.CounterValue(obs.CounterArenaGrows)
		p := r.loop(0, burstOps*r.spec.clients, tr)
		grows += obs.CounterValue(obs.CounterArenaGrows) - g0
		traced.lat = append(traced.lat, p.lat...)
		traced.wall += p.wall
		traced.check += p.check
		i := replays % len(r.xs)
		replay(tr, rctx, r.in, rout, r.xs[i])
		replays++
		r.attempted++
		if !bitwiseEqual(rout, r.refs[i]) {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("replay %d: output differs from the engine's for input %d", replays-1, i)
			}
		}
	}
	obs.Disable()
	stealShare := steal.share()
	speedup := r.speedupProbe()

	forwardMs := 0.0
	if n, ns := obs.StageTotals(obs.StageInfer); n > 0 && r.in.engine != nil {
		forwardMs = float64(ns) / 1e6 / float64(n)
	}
	l := buildLedger(tr.spans, forwardMs)
	nnz, bytes := r.work()
	flops := 0.0
	for _, layer := range layers(r.in.model) {
		flops += 2 * float64(r.graph.Rows) * float64(layer.Lin.In) * float64(layer.Lin.Out)
	}
	gflops := 0.0
	if l.GemmMs > 0 {
		gflops = flops / (l.GemmMs / 1e3) / 1e9
	}
	perReplay := func(s obs.Stage) float64 {
		_, ns := rec.StageTotals(s)
		return float64(ns) / 1e6 / float64(replays)
	}
	flushes := float64(obs.CounterValue(obs.CounterBatchFlushes))
	share := func(v float64) float64 {
		if flushes == 0 {
			return 0
		}
		return v / flushes
	}
	waitN, waitNs := obs.StageTotals(obs.StageBatchWait)
	waitMs := 0.0
	if waitN > 0 {
		waitMs = float64(waitNs) / 1e6 / float64(waitN)
	}
	// With at most two clients a flush carries one or two requests, so
	// requests − flushes counts the flushes that carried two.
	coalesced := float64(obs.CounterValue(obs.CounterBatchRequests)) - flushes
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("dense.gemm_ms", l.GemmMs, "ms")
	set("dense.gemm_gflops", gflops, "GFLOP/s")
	set("dense.relu_ms", l.ReLUMs, "ms")
	set("gnn.aggregate_ms", l.AggregateMs, "ms")
	set("cbm.spmm_ms", perReplay(obs.StageSpMM), "ms")
	set("cbm.update_ms", perReplay(obs.StageUpdate), "ms")
	set("cbm.fused_ms", perReplay(obs.StageFused), "ms")
	set("kernels.nnz_per_op", nnz, "count")
	set("kernels.bytes_per_op", bytes, "B")
	set("parallel.speedup_2v1", speedup, "x")
	set("graph.normalize_s", median(r.normS), "s")
	set("cbm.build.candidates_s", median(r.candS), "s")
	set("cbm.build.tree_s", median(r.treeS), "s")
	set("cbm.build.delta_s", median(r.deltaS), "s")
	for name, v := range r.in.counts() {
		if name != "adj_mib" {
			m[name] = v
		}
	}
	set("gnn.engine.overhead_ms", l.OverheadMs, "ms")
	set("gnn.batch.wait_ms", waitMs, "ms")
	set("gnn.batch.cols_mean", share(float64(obs.CounterValue(obs.CounterBatchCols))), "count")
	set("gnn.batch.coalesced_share", share(coalesced), "share")
	set("gnn.batch.window_flush_share", share(float64(obs.CounterValue(obs.CounterBatchFlushWindow))), "share")
	set("exec.allocs_per_op", float64(plain.mallocs)/float64(plain.ops()), "count")
	set("exec.arena_grows", float64(grows), "count")
	set("ledger.residual_share", l.ResidualShare, "share")
	set("trace.overhead_share", 1-traced.throughput(r.spec.clients)/plain.throughput(r.spec.clients), "share")
	set("host.steal_share", stealShare, "share")
	if traceDir == "" {
		return "", nil
	}
	return writeTrace(traceDir, r.spec.name, r.seed, tr.spans)
}

// speedupProbe times the workload's first aggregation at one and at two
// threads, alternating, and returns the ratio of the medians.
func (r *runner) speedupProbe() float64 {
	x := r.xs[0]
	if r.in.model != nil {
		l0 := r.in.model.L0.Lin
		xw := dense.New(x.Rows, l0.Out)
		l0.ForwardTo(exec.New(1), xw, x)
		x = xw
	}
	out := dense.New(x.Rows, x.Cols)
	one, two := exec.NewWithSink(1, obs.Nop), exec.NewWithSink(2, obs.Nop)
	mul := func(c *exec.Ctx) float64 {
		t0 := time.Now()
		r.in.adj.MulToCtx(c, out, x)
		return time.Since(t0).Seconds()
	}
	var t1, t2 []float64
	for i := 0; i < probeReps; i++ {
		t1 = append(t1, mul(one))
		t2 = append(t2, mul(two))
	}
	return median(t1) / median(t2)
}
