package cbm

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func TestPlanForDeterministic(t *testing.T) {
	a := synth.SBMGroups(300, 20, 0.8, 0.4, 23)
	m, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		for _, cols := range []int{1, 16, 256} {
			first := m.PlanFor(threads, cols)
			for i := 0; i < 10; i++ {
				if got := m.PlanFor(threads, cols); got != first {
					t.Fatalf("PlanFor(%d, %d) flapped: %v then %v", threads, cols, first, got)
				}
			}
		}
	}
}

// The CSR plan computes the same product by a different summation
// order: it must agree with the two-stage reference within float32
// accumulation tolerance for every kind, and be bitwise identical to
// itself across thread counts.
func TestCSRPlanMatchesReference(t *testing.T) {
	rng := xrand.New(43)
	a := synth.HolmeKim(400, 3, 0.3, 59)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !base.HasCSRPlan() {
		t.Fatal("compressed matrix lost its source CSR")
	}
	d := randomDiag(rng, a.Rows)
	b := randomDense(rng, a.Rows, 17)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		want := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(want, b, 1, StrategyBranch)
		csr1 := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(csr1, b, 1, StrategyCSR)
		for i := range want.Data {
			w, g := float64(want.Data[i]), float64(csr1.Data[i])
			if diff := math.Abs(w - g); diff > 1e-5+1e-4*math.Abs(w) {
				t.Fatalf("%s: csr plan diverges at %d: %g vs %g", name, i, g, w)
			}
		}
		for _, threads := range []int{2, 4, 8} {
			csrT := dense.New(a.Rows, b.Cols)
			m.MulToStrategy(csrT, b, threads, StrategyCSR)
			if !csrT.Equal(csr1) {
				t.Fatalf("%s: csr plan not thread-deterministic at %d threads", name, threads)
			}
		}
	}
}

// The plan rule on the registry at mini scale and each graph's
// parallel α: cora and pubmed compress to ratio 1.00 and run the CSR
// plan, every other graph compresses by ≥ 1.45× and runs two-stage.
// The rule ignores the thread count and the operand width.
func TestPlanRuleOnRegistry(t *testing.T) {
	wantCSR := map[string]bool{"cora-mini": true, "pubmed-mini": true}
	for _, d := range bench.MiniRegistry(4) {
		m, _, err := Compress(registryMini4()[d.Name], Options{Alpha: d.Paper.BestAlphaPar})
		if err != nil {
			t.Fatal(err)
		}
		want := StrategyBranch
		if wantCSR[d.Name] {
			want = StrategyCSR
		}
		ratio := float64(m.src.NNZ()) / float64(m.delta.NNZ())
		for _, threads := range []int{1, 2, 8} {
			for _, cols := range []int{1, 32, 500} {
				if got := m.PlanFor(threads, cols); got != want {
					t.Fatalf("%s (ratio %.2f) threads=%d cols=%d: PlanFor=%v, want %v",
						d.Name, ratio, threads, cols, got, want)
				}
			}
		}
	}
	// An empty matrix has no ratio (0/0); it runs two-stage.
	empty, _, err := Compress(sparse.NewCSR(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.PlanFor(1, 8); got != StrategyBranch {
		t.Fatalf("empty matrix: PlanFor=%v, want %v", got, StrategyBranch)
	}
}

// AutoTune's per-stage split must be scoped to its own measurement. A
// background goroutine hammering two-stage multiplies on an unrelated
// matrix (recording update spans into the GLOBAL obs totals) must not
// leak into the frontier: the tuned graph barely compresses, so its own
// plan is CSR and records no update span at all.
func TestAutoTuneScopedStagesUnderConcurrency(t *testing.T) {
	a := synth.ErdosRenyi(600, 6, 101)
	builder, err := NewBuilder(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noise := synth.HolmeKim(800, 4, 0.3, 103)
	nm, _, err := Compress(noise, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(107)
	nb := randomDense(rng, noise.Rows, 32)
	nc := dense.New(noise.Rows, nb.Cols)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			nm.MulToStrategy(nc, nb, 1, StrategyBranch)
		}
	}()
	_, _, frontier, err := AutoTune(builder, []int{0, 4}, 32, 3, 1, 109)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range frontier {
		if res.Plan != StrategyCSR.String() {
			t.Fatalf("alpha=%d: plan %q, want the CSR plan on an incompressible graph", res.Alpha, res.Plan)
		}
		if res.UpdateSeconds != 0 {
			t.Fatalf("alpha=%d: update stage shows %.4gs — background goroutine's spans leaked into the scoped split",
				res.Alpha, res.UpdateSeconds)
		}
		if res.SpMMSeconds <= 0 {
			t.Fatalf("alpha=%d: the scoped recorder saw no spmm span", res.Alpha)
		}
	}
}
