package oracle

import (
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/xrand"
)

// diag returns a deterministic diagonal bounded away from zero (the
// DAD update divides by it).
func diag(rng *xrand.RNG, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = rng.Float32() + 0.5
	}
	return d
}

// TestMetamorphicPropertiesAcrossGenerators is the in-tree miniature of
// the cmd/verify sweep: every adversarial shape, two α values, all
// three kinds, checked against the oracles and the metamorphic
// properties.
func TestMetamorphicPropertiesAcrossGenerators(t *testing.T) {
	const n = 48
	rng := xrand.New(23)
	for _, g := range Generators() {
		a := g.Gen(n, 9)
		d := diag(rng, n)
		b := dense.New(n, 10)
		rng.FillUniform(b.Data)
		b2 := dense.New(n, 10)
		rng.FillUniform(b2.Data)
		v := make([]float32, n)
		rng.FillUniform(v)

		if err := CheckAlphaInvariance(a, []int{0, 2, 8}, b, 4, Default()); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, alpha := range []int{0, 4} {
			base, _, err := cbm.Compress(a, cbm.Options{Alpha: alpha})
			if err != nil {
				t.Fatalf("%s α=%d: compress: %v", g.Name, alpha, err)
			}
			if err := CheckTreeReconstruction(a, base); err != nil {
				t.Fatalf("%s α=%d: %v", g.Name, alpha, err)
			}
			for kind, m := range map[cbm.Kind]*cbm.Matrix{
				cbm.KindA:   base,
				cbm.KindAD:  base.WithColumnScale(d),
				cbm.KindDAD: base.WithSymmetricScale(d),
			} {
				tol := KindTolerance(kind)
				want := CSRProduct(Operand(a, kind, d), b)
				for _, threads := range []int{1, 4} {
					if div := Compare(m.MulParallel(b, threads), want, tol); div != nil {
						t.Fatalf("%s α=%d kind=%v threads=%d: %v", g.Name, alpha, kind, threads, div)
					}
				}
				if err := CheckMulVecConsistency(m, v, 4); err != nil {
					t.Fatalf("%s α=%d kind=%v: %v", g.Name, alpha, kind, err)
				}
				if err := CheckStrategyEquivalence(m, b, []int{1, 2, 4, 8}); err != nil {
					t.Fatalf("%s α=%d kind=%v: %v", g.Name, alpha, kind, err)
				}
				if err := CheckLinearity(m, b, b2, 1.5, -0.5, 4, Loose()); err != nil {
					t.Fatalf("%s α=%d kind=%v: %v", g.Name, alpha, kind, err)
				}
			}
		}
	}
}

func TestCheckersRejectBrokenKernels(t *testing.T) {
	// Sanity: a deliberately corrupted comparison must be reported, so
	// the green sweep above is meaningful.
	a := genSBM(32, 4)
	m, _, err := cbm.Compress(a, cbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	b := dense.New(32, 6)
	rng.FillUniform(b.Data)
	good := m.Mul(b)
	bad := good.Clone()
	bad.Set(3, 2, bad.At(3, 2)+1)
	if Compare(bad, good, Default()) == nil {
		t.Fatal("corrupted product passed comparison")
	}
	// Wrong-matrix oracle: comparing against a different graph diverges.
	other := genER(32, 99)
	if Compare(m.Mul(b), CSRProduct(other, b), Loose()) == nil {
		t.Fatal("product of a different matrix passed comparison")
	}
}

func TestStressMatrixAndPrimitives(t *testing.T) {
	a := genHub(96, 13)
	base, _, err := cbm.Compress(a, cbm.Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	d := diag(rng, 96)
	b := dense.New(96, 12)
	rng.FillUniform(b.Data)
	v := make([]float32, 96)
	rng.FillUniform(v)
	cfg := StressConfig{Iters: 4, Seed: 101}
	for kind, m := range map[cbm.Kind]*cbm.Matrix{
		cbm.KindA:   base,
		cbm.KindAD:  base.WithColumnScale(d),
		cbm.KindDAD: base.WithSymmetricScale(d),
	} {
		if err := StressMatrix(m, b, v, cfg); err != nil {
			t.Fatalf("kind=%v: %v", kind, err)
		}
	}
	if err := StressPrimitives(StressConfig{Iters: 6, Seed: 55}); err != nil {
		t.Fatal(err)
	}
}
