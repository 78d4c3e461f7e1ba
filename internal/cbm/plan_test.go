package cbm

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
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

// Every registry graph at mini scale and its parallel α runs the
// two-stage plan, cora and pubmed (ratio 1.00) included, whatever the
// thread count and operand width; so does an empty matrix.
func TestPlanRuleOnRegistry(t *testing.T) {
	for _, d := range bench.MiniRegistry(4) {
		a := registryMini4()[d.Name]
		m, _, err := Compress(a, Options{Alpha: d.Paper.BestAlphaPar})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(a.NNZ()) / float64(m.delta.NNZ())
		for _, threads := range []int{1, 2, 8} {
			for _, cols := range []int{1, 32, 500} {
				if got := m.PlanFor(threads, cols); got != StrategyBranch {
					t.Fatalf("%s (ratio %.2f) threads=%d cols=%d: PlanFor=%v, want %v",
						d.Name, ratio, threads, cols, got, StrategyBranch)
				}
			}
		}
	}
	empty, _, err := Compress(sparse.NewCSR(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.PlanFor(1, 8); got != StrategyBranch {
		t.Fatalf("empty matrix: PlanFor=%v, want %v", got, StrategyBranch)
	}
}

// Every entry point that multiplies (MulTo, MulToCtx, Mul and
// MulParallel) must give the single-threaded MulTo bits at every
// thread count, for every kind.
func TestMulToAutoDispatchBitwiseStable(t *testing.T) {
	rng := xrand.New(89)
	a := synth.HolmeKim(350, 3, 0.3, 53)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	b := randomDense(rng, a.Rows, 19)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		want := dense.New(a.Rows, b.Cols)
		m.MulTo(want, b, 1)
		if !m.Mul(b).Equal(want) {
			t.Fatalf("%s: Mul not bitwise equal to MulTo", name)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			got := dense.New(a.Rows, b.Cols)
			m.MulToCtx(exec.New(threads), got, b)
			if !got.Equal(want) {
				t.Fatalf("%s threads=%d: MulToCtx not bitwise equal to MulTo", name, threads)
			}
			if !m.MulParallel(b, threads).Equal(want) {
				t.Fatalf("%s threads=%d: MulParallel not bitwise equal to MulTo", name, threads)
			}
		}
	}
}

func TestUpdateStrategyString(t *testing.T) {
	cases := map[UpdateStrategy]string{
		StrategyBranch:    "branch",
		StrategyCSR:       "csr",
		UpdateStrategy(9): "UpdateStrategy(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

// A recorder-scoped context must see only its own stage spans. A
// background goroutine hammering multiplies on an unrelated matrix
// (recording spans into the GLOBAL obs totals) must not leak into the
// scoped split: the scoped recorder sees exactly one spmm and one
// update span per call of its own.
func TestMulToCtxScopedStagesUnderConcurrency(t *testing.T) {
	a := synth.ErdosRenyi(600, 6, 101)
	m, _, err := Compress(a, Options{})
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
	b := randomDense(rng, a.Rows, 32)
	c := dense.New(a.Rows, b.Cols)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			nm.MulTo(nc, nb, 1)
		}
	}()
	rec := obs.NewRecorder()
	ctx := exec.NewWithSink(1, rec)
	const calls = 20
	for i := 0; i < calls; i++ {
		m.MulToCtx(ctx, c, b)
	}
	stop.Store(true)
	wg.Wait()
	if n, _ := rec.StageTotals(obs.StageUpdate); n != calls {
		t.Fatalf("scoped recorder saw %d update spans, want %d: the background goroutine's spans leaked in", n, calls)
	}
	if n, _ := rec.StageTotals(obs.StageSpMM); n != calls {
		t.Fatalf("scoped recorder saw %d spmm spans, want %d", n, calls)
	}
	if gn, _ := obs.StageTotals(obs.StageUpdate); gn == 0 {
		t.Fatal("background multiplies recorded no global update span")
	}
}
