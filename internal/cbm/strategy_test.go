package cbm

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// Whatever plan MulTo picks, the result must be bitwise equal to
// forcing that same plan through MulToStrategy (the auto dispatch adds
// no nondeterminism) and, for the two-stage plan, bitwise equal to the
// single-threaded two-stage reference.
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
		twoStage := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(twoStage, b, 1, StrategyBranch)
		for _, threads := range []int{1, 2, 4, 8} {
			plan := m.PlanFor(threads, b.Cols)
			forced := dense.New(a.Rows, b.Cols)
			m.MulToStrategy(forced, b, threads, plan)
			got := dense.New(a.Rows, b.Cols)
			m.MulTo(got, b, threads)
			if !got.Equal(forced) {
				t.Fatalf("%s threads=%d: MulTo not bitwise equal to forced %v plan", name, threads, plan)
			}
			if plan != StrategyCSR && !got.Equal(twoStage) {
				t.Fatalf("%s threads=%d: %v plan not bitwise equal to two-stage", name, threads, plan)
			}
		}
	}
}

// An out-of-range strategy value must fail loudly, not silently fall
// through to some default plan.
func TestMulToStrategyUnknownPanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unknown strategy")
		}
		msg, ok := r.(string)
		if !ok || !contains(msg, "unknown update strategy") {
			t.Fatalf("panic = %v, want unknown-strategy message", r)
		}
	}()
	m.MulToStrategy(dense.New(a.Rows, 2), dense.New(a.Rows, 2), 1, UpdateStrategy(42))
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
