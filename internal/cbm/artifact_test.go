package cbm_test

import (
	"bytes"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// Property over random graphs and all three kinds: an artifact that
// Decode accepts multiplies bitwise equal to the matrix it was encoded
// from.
func TestDecodedMatrixMulProperty(t *testing.T) {
	gens := []func(seed uint64) *sparse.CSR{
		func(seed uint64) *sparse.CSR { return synth.ErdosRenyi(300, 5, seed) },
		func(seed uint64) *sparse.CSR { return synth.HolmeKim(300, 3, 0.3, seed) },
		func(seed uint64) *sparse.CSR { return synth.SBMGroups(300, 20, 0.8, 0.3, seed) },
	}
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
				if !dec.MulParallel(b, 4).Equal(m.MulParallel(b, 4)) {
					t.Fatalf("gen %d seed %d %v: decoded MulTo not bitwise equal to the built matrix's", gi, seed, m.Kind())
				}
			}
		}
	}
}
