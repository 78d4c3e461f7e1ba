package cbm

import (
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/xrand"
)

// TestTreeDepthDeepChain is the regression test for the recursive
// treeDepth walk: a path-shaped tree (what an α = 0 chain graph
// compresses to) is as deep as the matrix is large, and the old
// one-stack-frame-per-level recursion overflowed the goroutine stack
// long before 1M nodes. The iterative walk must handle both chain
// orientations — ascending (each climb is one step) and descending
// (the first climb traverses the whole chain).
func TestTreeDepthDeepChain(t *testing.T) {
	n := 1 << 20
	parent := make([]int32, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	if d := treeDepth(parent); d != n {
		t.Fatalf("ascending chain depth = %d, want %d", d, n)
	}
	// Reversed chain: node 0 is the deepest, so the very first climb
	// walks all n edges before anything is memoized.
	for i := 0; i < n-1; i++ {
		parent[i] = int32(i + 1)
	}
	parent[n-1] = -1
	if d := treeDepth(parent); d != n {
		t.Fatalf("descending chain depth = %d, want %d", d, n)
	}
}

// treeDepthRef is the obvious O(n·depth) reference: follow every
// node's parent chain to the virtual root.
func treeDepthRef(parent []int32) int {
	max := 0
	for x := range parent {
		d := 0
		for y := int32(x); y >= 0; y = parent[y] {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

func TestTreeDepthMatchesReferenceOnRandomForests(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(rng.Uint64()%200)
		parent := make([]int32, n)
		for i := range parent {
			// Parent strictly below i keeps the structure a forest;
			// ~1/4 of nodes hang off the virtual root.
			if i == 0 || rng.Uint64()%4 == 0 {
				parent[i] = -1
			} else {
				parent[i] = int32(rng.Uint64() % uint64(i))
			}
		}
		if got, want := treeDepth(parent), treeDepthRef(parent); got != want {
			t.Fatalf("trial %d (n=%d): treeDepth = %d, reference = %d", trial, n, got, want)
		}
	}
}

// TestUnknownKindPanics pins the fail-loud contract of every kernel
// switch over Kind: an unknown kind must panic with the offending kind
// value, never silently return the raw delta product. threads=1 keeps
// the update stage inline so the panics are recoverable here.
func TestUnknownKindPanics(t *testing.T) {
	rng := xrand.New(5)
	n := 12
	a := randomBinary(rng, n, 0.3, true)
	b := randomDense(rng, n, 4)
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()
	}

	for _, tc := range []struct {
		name string
		call func(m *Matrix)
	}{
		{"MulTo", func(m *Matrix) { m.MulTo(dense.New(n, 4), b, 1) }},
		{"MulToStrategy", func(m *Matrix) { m.MulToStrategy(dense.New(n, 4), b, 1, StrategyBranch) }},
		{"MulVec", func(m *Matrix) { m.MulVec(v) }},
		{"MulVecParallel", func(m *Matrix) { m.MulVecParallel(v, 1) }},
	} {
		m, _, err := Compress(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m.kind = Kind(99)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on unknown kind", tc.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "unknown matrix kind 99") {
					t.Fatalf("%s: panic %v does not name the offending kind", tc.name, r)
				}
			}()
			tc.call(m)
		}()
	}
}
