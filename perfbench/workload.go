package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/sparse"
)

// spec describes one workload. Every workload is a closed loop: each
// client sends its next op only after the previous one returned. Why
// each exists is recorded in README.md.
type spec struct {
	name    string
	dataset string // internal/bench registry analog
	clients int
	threads int // thread budget of one op
	// engine serves ops through a gnn.Engine running GCN2; false runs the
	// bare two-hop propagation Â(ÂX) on an exec.Ctx.
	engine bool
	batch  bool // engine micro-batching on (1 slot, 250 µs window)
	// Widths: F input, H hidden, C classes. Propagation uses F only.
	f, h, c int
}

var specs = []spec{
	{name: "gcn-collab", dataset: "collab", clients: 1, threads: 1, engine: true, f: 32, h: 32, c: 16},
	{name: "prop-collab", dataset: "collab", clients: 1, threads: 2, f: 32},
	{name: "serve-pubmed-batched", dataset: "pubmed", clients: 2, threads: 1, engine: true, batch: true, f: 16, h: 16, c: 16},
}

const (
	alpha       = 4 // CBM pruning threshold of every workload
	numInputs   = 4 // distinct feature matrices the clients cycle through
	batchWindow = 250 * time.Microsecond
)

func lookup(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// checkCores refuses a workload that would run more threads or clients
// than the machine has cores: oversubscribed timings measure the
// scheduler, not the program.
func (s *spec) checkCores(nproc int) error {
	if s.threads > nproc || s.clients > nproc {
		return fmt.Errorf("workload %s needs %d thread(s) and %d client(s), machine has %d core(s)",
			s.name, s.threads, s.clients, nproc)
	}
	return nil
}

func (s *spec) outCols() int {
	if s.engine {
		return s.c
	}
	return s.f
}

// layers returns the model's layers in forward order (nil without a model).
func layers(m *gnn.GCN2) []*gnn.GCNConv {
	if m == nil {
		return nil
	}
	return []*gnn.GCNConv{m.L0, m.L1}
}

// instance is one set-up workload, ready to serve ops.
type instance struct {
	spec      *spec
	adj       *gnn.CBMAdjacency
	build     cbm.BuildStats
	normalize time.Duration
	binaryNNZ int // nnz of A+I, the matrix the CSR plan multiplies
	model     *gnn.GCN2
	engine    *gnn.Engine
	ctx       *exec.Ctx // propagation ops; one client owns it
}

// setup builds the served state the way a user of the repo would:
// normalise the graph, compress A+I, attach the DAD scale, build the
// engine (or context) and run one warm-up op per client. It returns
// the instance and the wall time of all of that. A runtime.GC first
// keeps generator garbage off the bill.
func setup(s *spec, a *sparse.CSR, model *gnn.GCN2, x *dense.Matrix) (*instance, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		return nil, 0, fmt.Errorf("normalise: %w", err)
	}
	tNorm := time.Since(t0)
	base, stats, err := cbm.Compress(na.Binary, cbm.Options{Alpha: alpha})
	if err != nil {
		return nil, 0, fmt.Errorf("compress: %w", err)
	}
	in := &instance{
		spec:      s,
		adj:       &gnn.CBMAdjacency{M: base.WithSymmetricScale(na.Diag)},
		build:     stats,
		normalize: tNorm,
		binaryNNZ: na.Binary.NNZ(),
		model:     model,
	}
	if s.engine {
		cfg := gnn.EngineConfig{MaxInFlight: s.clients, Threads: s.threads}
		if s.batch {
			cfg.MaxInFlight = 1
			cfg.Batch = gnn.BatchConfig{Window: batchWindow, MaxCols: s.clients * s.f}
		}
		in.engine = gnn.NewEngine(model, in.adj, cfg)
	} else {
		in.ctx = exec.New(s.threads)
	}
	outs := newOuts(s, a.Rows)
	var failed error
	var mu sync.Mutex
	runClients(s.clients, func(c int) {
		if err := in.safeOp(outs[c], x); err != nil {
			mu.Lock()
			failed = err
			mu.Unlock()
		}
	})
	if failed != nil {
		in.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", failed)
	}
	return in, time.Since(t0), nil
}

func (in *instance) close() {
	if in.engine != nil {
		in.engine.Close()
	}
}

// counts returns the metrics that depend only on the graph and the
// build, so one seed reproduces them exactly.
func (in *instance) counts() map[string]metric {
	deltas := float64(in.adj.M.NumDeltas())
	return map[string]metric{
		"adj_mib":               {float64(in.adj.FootprintBytes()) / (1 << 20), "MiB"},
		"cbm.delta_nnz":         {deltas, "count"},
		"cbm.compression_ratio": {float64(in.binaryNNZ) / deltas, "x"},
		"cbm.branches":          {float64(in.adj.M.NumBranches()), "count"},
		"cbm.tree_depth":        {float64(in.build.Depth), "count"},
		"cbm.build.pairs":       {float64(in.build.IntersectingPairs), "count"},
	}
}

// op runs one workload operation into out.
func (in *instance) op(out, x *dense.Matrix) {
	if in.engine != nil {
		in.engine.InferTo(out, x)
		return
	}
	twoHop(in.ctx, in.adj, out, x)
}

// safeOp is op with a panic reported as a failed op.
func (in *instance) safeOp(out, x *dense.Matrix) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op panicked: %v", r)
		}
	}()
	in.op(out, x)
	return nil
}

// twoHop computes out = Â(Âx), the SGC-style feature precompute, with
// the intermediate leased from the context's arena.
func twoHop(ctx *exec.Ctx, a gnn.Adjacency, out, x *dense.Matrix) {
	t := ctx.Borrow(x.Rows, x.Cols)
	a.MulToCtx(ctx, t, x)
	a.MulToCtx(ctx, out, t)
	ctx.Release(t)
}

// references computes, once and outside all timing, each input's
// expected output on the solo path of the same backend (one thread,
// no engine), and checks it against the CSR backend within the
// oracle's DAD-chain tolerance. Ops must later match these bitwise:
// the CBM plans are thread-count invariant and batched output is
// documented to equal solo output bit for bit.
func references(in *instance, a *sparse.CSR, xs []*dense.Matrix) ([]*dense.Matrix, error) {
	csr, err := gnn.NewCSRBackend(a)
	if err != nil {
		return nil, fmt.Errorf("CSR reference backend: %w", err)
	}
	refs := make([]*dense.Matrix, len(xs))
	for i, x := range xs {
		ref := dense.New(a.Rows, in.spec.outCols())
		want := dense.New(a.Rows, in.spec.outCols())
		if in.model != nil {
			in.model.InferTo(exec.New(1), ref, in.adj, x)
			in.model.InferTo(exec.New(1), want, csr, x)
		} else {
			twoHop(exec.New(1), in.adj, ref, x)
			twoHop(exec.New(1), csr, want, x)
		}
		if d := oracle.Compare(ref, want, oracle.Loose()); d != nil {
			return nil, fmt.Errorf("input %d: CBM solo output diverges from CSR: %v", i, d)
		}
		refs[i] = ref
	}
	return refs, nil
}

func newOuts(s *spec, rows int) []*dense.Matrix {
	outs := make([]*dense.Matrix, s.clients)
	for i := range outs {
		outs[i] = dense.New(rows, s.outCols())
	}
	return outs
}

// runClients runs body once per client concurrently and waits for all.
func runClients(clients int, body func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c)
		}(c)
	}
	wg.Wait()
}

// bitwiseEqual reports whether two equally shaped matrices hold the
// same float32 bit patterns.
func bitwiseEqual(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
