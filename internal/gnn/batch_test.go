package gnn

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// counterDeltas snapshots the batch counters so tests can assert exact
// per-scenario increments regardless of what earlier tests recorded.
type counterDeltas struct {
	base map[obs.Counter]int64
}

var batchCounters = []obs.Counter{
	obs.CounterBatchFlushes,
	obs.CounterBatchRequests,
	obs.CounterBatchCols,
	obs.CounterBatchFlushWindow,
	obs.CounterBatchFlushBudget,
}

func snapshotBatchCounters() counterDeltas {
	d := counterDeltas{base: make(map[obs.Counter]int64, len(batchCounters))}
	for _, c := range batchCounters {
		d.base[c] = obs.CounterValue(c)
	}
	return d
}

func (d counterDeltas) get(c obs.Counter) int64 {
	return obs.CounterValue(c) - d.base[c]
}

func (d counterDeltas) expect(t *testing.T, want map[obs.Counter]int64) {
	t.Helper()
	for _, c := range batchCounters {
		if got := d.get(c); got != want[c] {
			t.Fatalf("counter %v delta = %d, want %d", c, got, want[c])
		}
	}
}

// newBatchedEngine builds a batching engine over a fake clock with the
// test hook channel installed, so tests can observe each enqueue.
func newBatchedEngine(m Model, a Adjacency, cfg EngineConfig, fc *clock.Fake) (*Engine, chan struct{}) {
	cfg.Clock = fc
	e := NewEngine(m, a, cfg)
	enq := make(chan struct{})
	e.b.enqueued = enq
	return e, enq
}

// TestBatcherWindowFlushExactlyOnce drives the flush window with a
// fake clock: requests gathered inside one window execute as exactly
// one batch when the window elapses — no flush before the deadline, no
// second flush after, no time.Sleep anywhere.
func TestBatcherWindowFlushExactlyOnce(t *testing.T) {
	csr, _ := testBackends(t, 80, 120)
	n := csr.Rows()
	model := NewGCN2(6, 5, 3, 81)
	fc := clock.NewFake()
	e, enq := newBatchedEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Batch:       BatchConfig{Window: 10 * time.Millisecond, MaxCols: 1 << 20},
	}, fc)
	defer e.Close()

	rng := xrand.New(82)
	const k = 3
	xs := make([]*dense.Matrix, k)
	outs := make([]*dense.Matrix, k)
	wants := make([]*dense.Matrix, k)
	for i := range xs {
		xs[i] = randomFeatures(rng, n, 6)
		outs[i] = dense.New(n, 3)
		wants[i] = model.Infer(csr, xs[i], 1)
	}

	d := snapshotBatchCounters()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.InferTo(outs[i], xs[i])
		}(i)
	}
	for i := 0; i < k; i++ {
		<-enq
	}
	// All three are pending and the window has not elapsed: nothing may
	// have flushed.
	if got := d.get(obs.CounterBatchFlushes); got != 0 {
		t.Fatalf("%d flushes before the window elapsed", got)
	}
	fc.Advance(10 * time.Millisecond)
	wg.Wait()
	// Long after: the one-shot window must not fire again (there is
	// nothing pending, and the timer is spent).
	fc.Advance(time.Hour)
	d.expect(t, map[obs.Counter]int64{
		obs.CounterBatchFlushes:     1,
		obs.CounterBatchFlushWindow: 1,
		obs.CounterBatchRequests:    k,
		obs.CounterBatchCols:        k * 6,
	})
	for i := range outs {
		if !bitwiseEqual(outs[i], wants[i]) {
			t.Fatalf("request %d: batched output differs from solo InferTo", i)
		}
	}
}

// TestBatcherBudgetFlushExactlyOnce drives the column budget: the
// request that fills it flushes the batch immediately — synchronously,
// with the clock frozen — and disarms the pending window timer so the
// next batch starts with a fresh window.
func TestBatcherBudgetFlushExactlyOnce(t *testing.T) {
	csr, _ := testBackends(t, 83, 120)
	n := csr.Rows()
	model := NewGCN2(4, 5, 2, 84)
	fc := clock.NewFake()
	e, enq := newBatchedEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Batch:       BatchConfig{Window: 10 * time.Millisecond, MaxCols: 8}, // = 2 requests × 4 cols
	}, fc)
	defer e.Close()

	rng := xrand.New(85)
	x1, x2 := randomFeatures(rng, n, 4), randomFeatures(rng, n, 4)
	out1, out2 := dense.New(n, 2), dense.New(n, 2)
	want1, want2 := model.Infer(csr, x1, 1), model.Infer(csr, x2, 1)

	d := snapshotBatchCounters()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); e.InferTo(out1, x1) }()
	<-enq
	if fc.Armed() != 1 {
		t.Fatal("first pending request did not arm the window timer")
	}
	wg.Add(1)
	go func() { defer wg.Done(); e.InferTo(out2, x2) }()
	<-enq // the second request filled the budget: flush already ran
	wg.Wait()
	if fc.Armed() != 0 {
		t.Fatal("budget flush left the window timer armed")
	}
	// The spent window must not fire a second, empty flush.
	fc.Advance(time.Hour)
	d.expect(t, map[obs.Counter]int64{
		obs.CounterBatchFlushes:     1,
		obs.CounterBatchFlushBudget: 1,
		obs.CounterBatchRequests:    2,
		obs.CounterBatchCols:        8,
	})
	if !bitwiseEqual(out1, want1) || !bitwiseEqual(out2, want2) {
		t.Fatal("budget-flushed batch differs from solo InferTo")
	}
}

// TestGatherScatterRaggedWideMulBitwise is the kernel-level soundness
// check behind batching: for random mixes of 1–64 parts with ragged
// column counts, multiplying the column-concatenation once and slicing
// the result is bitwise identical to multiplying every part alone — on
// both backends, single- and multi-threaded. This is the
// column-independence property the batched engine rests on.
func TestGatherScatterRaggedWideMulBitwise(t *testing.T) {
	csr, cbmB := testBackends(t, 90, 130)
	n := csr.Rows()
	rng := xrand.New(91)
	for _, k := range []int{1, 2, 3, 17, 64} {
		widths := make([]int, k)
		total := 0
		for i := range widths {
			widths[i] = 1 + int(rng.Uint64()%5) // ragged: 1–5 columns each
			total += widths[i]
		}
		parts := make([]*dense.Matrix, k)
		wide := dense.New(n, total)
		off := 0
		for i := range parts {
			parts[i] = randomFeatures(rng, n, widths[i])
			gatherCols(wide, off, parts[i])
			off += widths[i]
		}
		for _, backend := range []struct {
			name string
			a    Adjacency
		}{{"csr", csr}, {"cbm", cbmB}} {
			for _, threads := range []int{1, 4} {
				ctx := exec.New(threads)
				wideOut := dense.New(n, total)
				backend.a.MulToCtx(ctx, wideOut, wide)
				off := 0
				for i, p := range parts {
					solo := dense.New(n, widths[i])
					backend.a.MulToCtx(ctx, solo, p)
					slice := dense.New(n, widths[i])
					scatterCols(slice, wideOut, off)
					if !bitwiseEqual(slice, solo) {
						t.Fatalf("%s threads=%d k=%d part=%d: wide product slice differs from solo product", backend.name, threads, k, i)
					}
					off += widths[i]
				}
			}
		}
	}
}

// TestGatherScatterPanicsOnShapeMismatch pins the dimensioned panics
// of the packing kernels.
func TestGatherScatterPanicsOnShapeMismatch(t *testing.T) {
	wide := dense.New(4, 6)
	narrow := dense.New(4, 3)
	short := dense.New(3, 3)
	for name, call := range map[string]func(){
		"gather overflow":  func() { gatherCols(wide, 4, narrow) },
		"gather rows":      func() { gatherCols(wide, 0, short) },
		"gather negative":  func() { gatherCols(wide, -1, narrow) },
		"scatter overflow": func() { scatterCols(narrow, wide, 4) },
		"scatter rows":     func() { scatterCols(short, wide, 0) },
		"scatter negative": func() { scatterCols(narrow, wide, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestEngineBatchedConcurrentBitwiseIdentical is the batched
// counterpart of TestEngineConcurrentBitwiseIdentical: 8 goroutines
// with distinct inputs hammer batching engines over several model
// shapes and both backends (real clock, short window, so batches form and flush
// nondeterministically), and every response must be bitwise identical
// to the solo path regardless of which requests coalesced. Run under
// -race (ci.sh does).
func TestEngineBatchedConcurrentBitwiseIdentical(t *testing.T) {
	csr, cbmB := testBackends(t, 92, 200)
	rng := xrand.New(93)
	n := csr.Rows()

	type serveCase struct {
		name   string
		engine *Engine
		xs     []*dense.Matrix // one per worker
		wants  []*dense.Matrix
	}
	const workers = 8
	cases := make([]*serveCase, 0, 4)
	// F, H and C differ in every model, so the layer-1 scatter out of
	// the wide activation slices at a stride other than the input's.
	add := func(name string, m *GCN2, a Adjacency, cfg EngineConfig) {
		c := &serveCase{name: name, engine: NewEngine(m, a, cfg)}
		for w := 0; w < workers; w++ {
			x := randomFeatures(rng, n, m.InDim())
			c.xs = append(c.xs, x)
			c.wants = append(c.wants, m.Infer(a, x, 1))
		}
		cases = append(cases, c)
	}
	batch := BatchConfig{Window: 200 * time.Microsecond}
	add("gcn2/csr", NewGCN2(16, 12, 5, 94), csr, EngineConfig{MaxInFlight: 2, Batch: batch})
	add("gcn2/cbm", NewGCN2(10, 8, 4, 95), cbmB, EngineConfig{MaxInFlight: 1, Batch: batch})
	add("gcn2-widehidden/csr", NewGCN2(6, 9, 3, 96), csr, EngineConfig{MaxInFlight: 2, Batch: batch})
	add("gcn2-narrowhidden/cbm", NewGCN2(8, 5, 2, 97), cbmB, EngineConfig{MaxInFlight: 1, Batch: batch})
	defer func() {
		for _, c := range cases {
			c.engine.Close()
		}
	}()

	const reqsPerWorker = 6
	errc := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs := make([]*dense.Matrix, len(cases))
			for i, c := range cases {
				outs[i] = dense.New(n, c.engine.OutDim())
			}
			for r := 0; r < reqsPerWorker; r++ {
				for i, c := range cases {
					c.engine.InferTo(outs[i], c.xs[w])
					if !bitwiseEqual(outs[i], c.wants[w]) {
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
		t.Fatalf("%s: batched InferTo differs from solo inference", name)
	default:
	}
}

// TestEngineBatchedInferZeroAlloc extends the zero-allocation
// acceptance criterion to the batched path: after warm-up, a
// steady-state request through submit → flush → wide forward pass →
// scatter performs zero allocations, measured both for single-request
// batches and for two requests coalescing every round.
func TestEngineBatchedInferZeroAlloc(t *testing.T) {
	csr, _ := testBackends(t, 98, 150)
	n := csr.Rows()
	rng := xrand.New(99)
	model := NewGCN2(12, 10, 4, 100)

	// Batch of one: MaxCols = InDim makes every request fill the budget
	// alone, so each submission flushes synchronously (the timer is
	// never armed) and the whole path is exercised without companions.
	solo := NewEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 12},
	})
	defer solo.Close()
	x := randomFeatures(rng, n, 12)
	out := dense.New(n, model.OutDim())
	solo.InferTo(out, x) // warm slot arena, request pool, flush scratch
	if allocs := testing.AllocsPerRun(50, func() {
		solo.InferTo(out, x)
	}); allocs != 0 {
		t.Fatalf("steady-state batched InferTo (batch of 1) allocates %v times per request", allocs)
	}

	// Batch of two: a helper goroutine contributes the companion
	// request in lockstep; MaxCols = 2·InDim flushes exactly when both
	// have joined.
	duo := NewEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 24},
	})
	defer duo.Close()
	x2 := randomFeatures(rng, n, 12)
	out2 := dense.New(n, model.OutDim())
	trigger := make(chan struct{}) // unbuffered: lockstep with the helper
	helperDone := make(chan struct{})
	go func() {
		defer close(helperDone)
		for range trigger {
			duo.InferTo(out2, x2)
		}
	}()
	round := func() {
		trigger <- struct{}{}
		duo.InferTo(out, x)
	}
	round() // warm-up
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state batched InferTo (batch of 2) allocates %v times per round", allocs)
	}
	close(trigger)
	<-helperDone
	if !bitwiseEqual(out, model.Infer(csr, x, 1)) || !bitwiseEqual(out2, model.Infer(csr, x2, 1)) {
		t.Fatal("zero-alloc batched rounds produced wrong output")
	}
}

// leakyBatchModel violates the arena ownership rule from the batched
// forward pass.
type leakyBatchModel struct{ leakyModel }

func (m leakyBatchModel) InferBatchTo(ctx *exec.Ctx, outs []*dense.Matrix, a Adjacency, xs []*dense.Matrix) {
	ctx.Borrow(2, 2) // never released
}

// TestEngineBatchedLeakPanicsWaiter pins the batched leak check: a
// batch that returns with outstanding arena buffers panics the waiting
// caller (the poisoned slot is retired, not recycled).
func TestEngineBatchedLeakPanicsWaiter(t *testing.T) {
	csr, _ := testBackends(t, 101, 30)
	n := csr.Rows()
	e := NewEngine(leakyBatchModel{}, csr, EngineConfig{
		MaxInFlight: 2,
		Clock:       clock.NewFake(),
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 1},
	})
	defer e.Close()
	defer func() {
		pv := recover()
		if pv == nil {
			t.Fatal("leaked arena buffer in a batch did not panic the caller")
		}
		if msg, ok := pv.(string); !ok || !strings.Contains(msg, "leaked") {
			t.Fatalf("unexpected panic value: %v", pv)
		}
	}()
	e.InferTo(dense.New(n, 1), dense.New(n, 1))
}

// panickyModel fails mid-forward-pass.
type panickyModel struct{}

func (panickyModel) InferTo(ctx *exec.Ctx, out *dense.Matrix, a Adjacency, x *dense.Matrix) {
	panic("gnn_test: model failure")
}
func (panickyModel) InDim() int  { return 1 }
func (panickyModel) OutDim() int { return 1 }

// TestEngineBatchedModelPanicReachesCaller pins panic transport: a
// panic inside a batched forward pass re-panics on the submitting
// goroutine (matching unbatched behavior), and the flusher survives to
// serve later requests.
func TestEngineBatchedModelPanicReachesCaller(t *testing.T) {
	csr, _ := testBackends(t, 102, 30)
	n := csr.Rows()
	e := NewEngine(panickyModel{}, csr, EngineConfig{
		MaxInFlight: 1,
		Clock:       clock.NewFake(),
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 1},
	})
	defer e.Close()
	for i := 0; i < 2; i++ { // twice: the flusher must survive the first
		func() {
			defer func() {
				if pv := recover(); pv != "gnn_test: model failure" {
					t.Fatalf("round %d: caller saw panic %v, want the model's", i, pv)
				}
			}()
			e.InferTo(dense.New(n, 1), dense.New(n, 1))
		}()
	}
}

// TestEngineBatchedMalformedRequestPanicsCaller pins submit-time
// validation: a malformed batched request panics its own caller before
// joining a batch, so batch-mates are untouched and the scheduler
// keeps serving.
func TestEngineBatchedMalformedRequestPanicsCaller(t *testing.T) {
	csr, _ := testBackends(t, 103, 60)
	n := csr.Rows()
	model := NewGCN2(5, 4, 2, 104)
	e := NewEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Clock:       clock.NewFake(),
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 5},
	})
	defer e.Close()
	d := snapshotBatchCounters()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("malformed batched request did not panic")
			}
		}()
		e.InferTo(dense.New(n, 2), dense.New(n, 9))
	}()
	if got := d.get(obs.CounterBatchFlushes); got != 0 {
		t.Fatalf("malformed request reached the scheduler: %d flushes", got)
	}
	// The scheduler still serves well-formed requests.
	x := dense.New(n, 5)
	out := dense.New(n, 2)
	e.InferTo(out, x)
	if !bitwiseEqual(out, model.Infer(csr, x, 1)) {
		t.Fatal("engine broken after rejected batched request")
	}
}

// TestEngineCloseDrainsQueue pins the Close contract: requests already
// queued when Close is called are served by the drain flush, not
// dropped.
func TestEngineCloseDrainsQueue(t *testing.T) {
	csr, _ := testBackends(t, 105, 80)
	n := csr.Rows()
	model := NewGCN2(4, 3, 2, 106)
	fc := clock.NewFake()
	e, enq := newBatchedEngine(model, csr, EngineConfig{
		MaxInFlight: 1,
		Batch:       BatchConfig{Window: time.Hour, MaxCols: 1 << 20},
	}, fc)
	rng := xrand.New(107)
	x := randomFeatures(rng, n, 4)
	out := dense.New(n, 2)
	done := make(chan struct{})
	go func() {
		e.InferTo(out, x)
		close(done)
	}()
	<-enq
	// The hour-long window would never elapse; Close must flush anyway.
	e.Close()
	<-done
	if !bitwiseEqual(out, model.Infer(csr, x, 1)) {
		t.Fatal("drain flush produced wrong output")
	}
	e.Close() // idempotent
}
