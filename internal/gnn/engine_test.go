package gnn

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/xrand"
)

// TestEngineConcurrentBitwiseIdentical is the serving-path soundness
// check: ≥8 goroutines hammering engines over mixed models, backends
// and batch shapes must each produce output bitwise identical to the
// single-threaded allocating path. Run under -race (ci.sh does).
func TestEngineConcurrentBitwiseIdentical(t *testing.T) {
	csr, cbmB := testBackends(t, 60, 220)
	rng := xrand.New(61)
	n := csr.Rows()

	type serveCase struct {
		name   string
		engine *Engine
		x      *dense.Matrix
		want   *dense.Matrix
	}
	cases := make([]serveCase, 0, 4)
	// F, H and C differ in every model, so a buffer of the wrong width
	// anywhere in the forward pass shows up as a shape panic or a
	// mismatch.
	add := func(name string, m *GCN2, a Adjacency, cfg EngineConfig) {
		x := randomFeatures(rng, n, m.InDim())
		cases = append(cases, serveCase{name, NewEngine(m, a, cfg), x, m.Infer(a, x, 1)})
	}
	add("gcn2/csr", NewGCN2(16, 12, 5, 62), csr, EngineConfig{MaxInFlight: 3, Threads: 1})
	add("gcn2/cbm", NewGCN2(10, 8, 4, 63), cbmB, EngineConfig{MaxInFlight: 2, Threads: 1})
	add("gcn2-widehidden/csr", NewGCN2(6, 9, 3, 64), csr, EngineConfig{MaxInFlight: 4, Threads: 1})
	add("gcn2-narrowhidden/cbm", NewGCN2(8, 5, 2, 65), cbmB, EngineConfig{MaxInFlight: 2, Threads: 1})

	const workers = 8
	const reqsPerWorker = 6
	errc := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its output buffers, one per case; the
			// engines below are shared by all workers.
			outs := make([]*dense.Matrix, len(cases))
			for i, c := range cases {
				outs[i] = dense.New(n, c.engine.OutDim())
			}
			for r := 0; r < reqsPerWorker; r++ {
				for i, c := range cases {
					c.engine.InferTo(outs[i], c.x)
					if !bitwiseEqual(outs[i], c.want) {
						select {
						case errc <- c.name:
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case name := <-errc:
		t.Fatalf("%s: concurrent InferTo differs from sequential Infer", name)
	default:
	}
}

// TestEngineInferZeroAlloc pins the acceptance criterion: after one
// warm-up request per slot, a steady-state Engine.InferTo performs
// zero allocations.
func TestEngineInferZeroAlloc(t *testing.T) {
	csr, _ := testBackends(t, 66, 150)
	rng := xrand.New(67)
	model := NewGCN2(12, 10, 4, 68)
	e := NewEngine(model, csr, EngineConfig{MaxInFlight: 1, Threads: 1})
	x := randomFeatures(rng, csr.Rows(), 12)
	out := dense.New(csr.Rows(), model.OutDim())
	e.InferTo(out, x) // warm the slot's arena
	if allocs := testing.AllocsPerRun(50, func() {
		e.InferTo(out, x)
	}); allocs != 0 {
		t.Fatalf("steady-state Engine.InferTo allocates %v times per request", allocs)
	}
}

func TestEngineInferMatchesInferTo(t *testing.T) {
	csr, _ := testBackends(t, 69, 100)
	rng := xrand.New(70)
	model := NewGCN2(8, 6, 3, 71)
	e := NewEngine(model, csr, EngineConfig{MaxInFlight: 1, Threads: 1})
	x := randomFeatures(rng, csr.Rows(), 8)
	z := e.Infer(x)
	if !bitwiseEqual(z, model.Infer(csr, x, 1)) {
		t.Fatal("Engine.Infer differs from Model.Infer")
	}
	if e.Rows() != csr.Rows() || e.OutDim() != 3 || e.Slots() != 1 {
		t.Fatalf("engine accessors: rows=%d out=%d slots=%d", e.Rows(), e.OutDim(), e.Slots())
	}
}

func TestEngineDefaultSlots(t *testing.T) {
	csr, _ := testBackends(t, 72, 60)
	e := NewEngine(NewGCN2(4, 4, 2, 73), csr, EngineConfig{})
	if e.Slots() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default slots = %d, want GOMAXPROCS = %d", e.Slots(), runtime.GOMAXPROCS(0))
	}
}

// leakyModel violates the arena ownership rule on purpose.
type leakyModel struct{}

func (leakyModel) InferTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	ctx.Borrow(2, 2) // never released
}
func (leakyModel) InDim() int  { return 1 }
func (leakyModel) OutDim() int { return 1 }

func TestEngineLeakedBufferPanics(t *testing.T) {
	csr, _ := testBackends(t, 75, 30)
	n := csr.Rows()
	e := NewEngine(leakyModel{}, csr, EngineConfig{MaxInFlight: 1, Threads: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("leaked arena buffer did not panic")
		}
	}()
	e.InferTo(dense.New(n, 1), dense.New(n, 1))
}

func TestEngineRejectsMalformedRequests(t *testing.T) {
	csr, _ := testBackends(t, 76, 40)
	n := csr.Rows()
	model := NewGCN2(5, 4, 2, 77)
	e := NewEngine(model, csr, EngineConfig{MaxInFlight: 1, Threads: 1})
	for name, call := range map[string]func(){
		"bad input":  func() { e.InferTo(dense.New(n, 2), dense.New(n, 9)) },
		"bad output": func() { e.InferTo(dense.New(n, 9), dense.New(n, 5)) },
		"bad rows":   func() { e.InferTo(dense.New(n, 2), dense.New(n+1, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			call()
		}()
	}
	// Rejection happens under the slot lease (so validation and
	// execution see the same adjacency state); the deferred release
	// must return the slot through the panic.
	x := dense.New(n, 5)
	out := dense.New(n, 2)
	e.InferTo(out, x)
	if !bitwiseEqual(out, model.Infer(csr, x, 1)) {
		t.Fatal("engine broken after rejected requests")
	}
}

// TestEngineShapeCheckUnderLeaseKeepsSlots is the regression test for
// validation moving under the slot lease: a storm of malformed
// requests — each panicking mid-admission — must leave every execution
// slot in the pool.
// (Before the fix, validation ran pre-admission; once it runs on the
// leased context, only the deferred release keeps a panic from
// leaking the slot.)
func TestEngineShapeCheckUnderLeaseKeepsSlots(t *testing.T) {
	csr, _ := testBackends(t, 78, 40)
	n := csr.Rows()
	model := NewGCN2(5, 4, 2, 79)
	e := NewEngine(model, csr, EngineConfig{MaxInFlight: 2, Threads: 1})
	bad := func(call func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("malformed request did not panic")
			}
		}()
		call()
	}
	for i := 0; i < 10; i++ {
		bad(func() { e.InferTo(dense.New(n, 2), dense.New(n, 9)) })
		bad(func() { e.InferTo(dense.New(n, 9), dense.New(n, 5)) })
	}
	if got := len(e.ctxs); got != e.Slots() {
		t.Fatalf("panic storm left %d of %d slots in the pool", got, e.Slots())
	}
	// And the survivors still serve.
	x := dense.New(n, 5)
	out := dense.New(n, 2)
	e.InferTo(out, x)
	if !bitwiseEqual(out, model.Infer(csr, x, 1)) {
		t.Fatal("engine broken after panic storm")
	}
}
