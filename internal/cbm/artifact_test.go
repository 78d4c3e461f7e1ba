package cbm_test

import (
	"bytes"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/oracle"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// Property over random graphs and all three kinds: an artifact that
// Decode accepts runs the two-stage plan (it carries no source matrix),
// and its MulTo equals the original's — bitwise whenever the original
// also runs two-stage, within oracle.Loose() when the original runs the
// CSR plan.
func TestDecodedMatrixMulProperty(t *testing.T) {
	gens := []func(seed uint64) *sparse.CSR{
		func(seed uint64) *sparse.CSR { return synth.ErdosRenyi(300, 5, seed) },
		func(seed uint64) *sparse.CSR { return synth.HolmeKim(300, 3, 0.3, seed) },
		func(seed uint64) *sparse.CSR { return synth.SBMGroups(300, 20, 0.8, 0.3, seed) },
	}
	plans := map[cbm.UpdateStrategy]int{}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		for gi, gen := range gens {
			a := gen(seed)
			base, _, err := cbm.Compress(a, cbm.Options{Alpha: int(seed % 3)})
			if err != nil {
				t.Fatal(err)
			}
			d := make([]float32, a.Rows)
			for i := range d {
				d[i] = 0.5 + rng.Float32()
			}
			b := dense.New(a.Rows, 1+rng.Intn(20))
			rng.FillUniform(b.Data)
			for _, m := range []*cbm.Matrix{base, base.WithColumnScale(d), base.WithSymmetricScale(d)} {
				var buf bytes.Buffer
				if err := m.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				dec, err := cbm.Decode(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if got := dec.PlanFor(4, b.Cols); got != cbm.StrategyBranch {
					t.Fatalf("gen %d seed %d %v: decoded PlanFor=%v, want two-stage", gi, seed, m.Kind(), got)
				}
				plan := m.PlanFor(4, b.Cols)
				plans[plan]++
				want := m.MulParallel(b, 4)
				got := dec.MulParallel(b, 4)
				if plan == cbm.StrategyBranch && !got.Equal(want) {
					t.Fatalf("gen %d seed %d %v: decoded MulTo not bitwise equal to the original's two-stage plan",
						gi, seed, m.Kind())
				}
				if d := oracle.Compare(got, want, oracle.Loose()); d != nil {
					t.Fatalf("gen %d seed %d %v (original plan %v): %v", gi, seed, m.Kind(), plan, d)
				}
			}
		}
	}
	if plans[cbm.StrategyBranch] == 0 || plans[cbm.StrategyCSR] == 0 {
		t.Fatalf("the sweep must exercise both original plans, got %v", plans)
	}
}
