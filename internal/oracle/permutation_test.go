package oracle

import (
	"strings"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func testPerm(rng *xrand.RNG, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func TestCheckPermutationRoundTrip(t *testing.T) {
	rng := xrand.New(4)
	for _, gen := range Generators() {
		a := gen.Gen(80, 7)
		if a.Rows != a.Cols {
			continue
		}
		if err := CheckPermutationRoundTrip(a, testPerm(rng, a.Rows)); err != nil {
			t.Fatalf("%s: %v", gen.Name, err)
		}
	}
}

func TestCheckPermutationEquivalence(t *testing.T) {
	a := synth.SBMGroups(300, 15, 0.8, 0.5, 14)
	rng := xrand.New(15)
	b := dense.New(a.Rows, 6)
	rng.FillUniform(b.Data)
	perm := testPerm(rng, a.Rows)
	for _, threads := range []int{1, 4} {
		err := CheckPermutationEquivalence(a, perm, b, cbm.Options{Alpha: 0}, threads, Loose())
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

func TestCheckPermutationEquivalenceCatchesWrongPermutation(t *testing.T) {
	// A deliberately wrong scatter (cyclic shift of the permutation)
	// must be detected — rows land at the wrong indices.
	a := synth.SBMGroups(200, 10, 0.8, 0.5, 24)
	rng := xrand.New(25)
	b := dense.New(a.Rows, 4)
	rng.FillUniform(b.Data)
	perm := testPerm(rng, a.Rows)
	bad := make([]int32, len(perm))
	copy(bad, perm[1:])
	bad[len(bad)-1] = perm[0]

	m, _, err := cbm.Compress(a, cbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := dense.New(a.Rows, 4)
	m.MulTo(want, b, 1)

	pa := a.PermuteSymmetric(perm)
	mp, _, err := cbm.Compress(pa, cbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp := dense.New(b.Rows, b.Cols)
	for i, s := range perm {
		copy(bp.Row(i), b.Row(int(s)))
	}
	cp := dense.New(a.Rows, 4)
	mp.MulTo(cp, bp, 1)
	got := dense.New(a.Rows, 4)
	for i, s := range bad { // scatter through the WRONG permutation
		copy(got.Row(int(s)), cp.Row(i))
	}
	if d := Compare(got, want, Loose()); d == nil {
		t.Fatal("wrong scatter permutation went undetected")
	}
}

func TestCheckPermutationRoundTripPanicsOnBadShape(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on short permutation")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "length") {
			t.Fatalf("panic %v does not mention the length", r)
		}
	}()
	a := synth.ErdosRenyi(10, 2, 1)
	_ = CheckPermutationRoundTrip(a, []int32{0, 1})
}
