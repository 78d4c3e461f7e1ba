package cbm

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/mca"
	"repro/internal/sparse"
	"repro/internal/synth"
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
		{"MulToCtx", func(m *Matrix) { m.MulToCtx(exec.New(1), dense.New(n, 4), b) }},
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

// registryMini4 generates the mini registry (scale 4) once for every
// test that needs it; under -race, generating it costs more than the
// tests' own work.
var registryMini4 = sync.OnceValue(func() map[string]*sparse.CSR {
	out := map[string]*sparse.CSR{}
	for _, d := range bench.MiniRegistry(4) {
		out[d.Name] = d.Generate(1)
	}
	return out
})

// registryMini16 is the mini registry at scale 16, cut from the
// scale-4 graphs: both are leading principal submatrices of the full
// graph, and this is MiniRegistry's sizing rule applied once more.
func registryMini16() map[string]*sparse.CSR {
	out := map[string]*sparse.CSR{}
	for name, a := range registryMini4() {
		n := a.Rows / 4
		if n < 512 {
			n = min(512, a.Rows)
		}
		out[name] = a.Submatrix(n)
	}
	return out
}

// globalTreeMCA is the construction the per-component build replaced,
// kept as its reference: one edge list over every row (the row's root
// edge, then its surviving candidates in list order) and a single
// arborescence solve over the whole graph.
func globalTreeMCA(a *sparse.CSR, cand [][]candidate, alpha int) ([]int32, int64, error) {
	n := a.Rows
	root := int32(n)
	var edges []mca.Edge
	for x := 0; x < n; x++ {
		nx := int32(a.RowNNZ(x))
		edges = append(edges, mca.Edge{From: root, To: int32(x), W: int64(nx)})
		for _, c := range cand[x] {
			if int(c.savings(nx)) >= alpha {
				edges = append(edges, mca.Edge{From: c.Y, To: int32(x), W: int64(c.H)})
			}
		}
	}
	par, total, err := mca.Arborescence(n+1, root, edges)
	if err != nil {
		return nil, 0, err
	}
	parent := par[:n]
	for i := range parent {
		if parent[i] == root {
			parent[i] = -1
		}
	}
	return parent, total, nil
}

// prunedComponents counts the weakly connected components of the
// candidate graph after α pruning, by breadth-first search.
func prunedComponents(cand [][]candidate, alpha int, rowNNZ []int32) int {
	n := len(cand)
	adj := make([][]int32, n)
	for x := range cand {
		for _, c := range cand[x] {
			if int(c.savings(rowNNZ[x])) >= alpha {
				adj[x] = append(adj[x], c.Y)
				adj[c.Y] = append(adj[c.Y], int32(x))
			}
		}
	}
	seen := make([]bool, n)
	k := 0
	for s := range adj {
		if seen[s] {
			continue
		}
		k++
		seen[s] = true
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return k
}

// The per-component arborescence must pick exactly the tree the single
// global solve picks — every parent, ties included — and the same
// weight, at every α. BuildStats.Components must count the pruned
// graph's components. (Thread counts are covered by
// TestCompressThreadInvariantEncode.)
func TestTreeMCAPerComponentMatchesGlobal(t *testing.T) {
	for name, a := range registryMini16() {
		b, err := NewBuilder(a, Options{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []int{0, 1, 4, 32} {
			want, wantW, err := globalTreeMCA(a, b.cand, alpha)
			if err != nil {
				t.Fatal(err)
			}
			m, stats, err := b.Compress(alpha, alpha == 0)
			if err != nil {
				t.Fatal(err)
			}
			if stats.TreeWeight != wantW {
				t.Fatalf("%s α=%d: TreeWeight %d, global solve %d", name, alpha, stats.TreeWeight, wantW)
			}
			for x := range want {
				if m.parent[x] != want[x] {
					t.Fatalf("%s α=%d: parent[%d] = %d, global solve %d", name, alpha, x, m.parent[x], want[x])
				}
			}
			if want := prunedComponents(b.cand, alpha, a.Degrees()); stats.Components != want {
				t.Fatalf("%s α=%d: Components = %d, pruned graph has %d", name, alpha, stats.Components, want)
			}
		}
	}
}

// Compression is thread-count invariant: the encoded artifact is
// byte-identical at every Threads value, for the MST and the parallel
// per-component arborescence alike. The graphs cover one big
// community mixture (hundreds of multi-row components at α = 4), a
// sparse citation-like graph (mostly single rows) and dense groups.
func TestCompressThreadInvariantEncode(t *testing.T) {
	graphs := map[string]*sparse.CSR{
		"mixture": synth.SBMMixture(2400, []synth.SBMComponent{
			{Weight: 0.45, GroupSize: 100, InProb: 0.96},
			{Weight: 0.30, GroupSize: 55, InProb: 0.95},
			{Weight: 0.25, GroupSize: 20, InProb: 0.95},
		}, 0.3, 1),
		"holmekim": synth.HolmeKim(1500, 3, 0.05, 2),
		"groups":   synth.SBMGroups(1200, 40, 0.85, 0.5, 3),
	}
	for name, a := range graphs {
		for _, alpha := range []int{0, 4} {
			var want []byte
			for _, threads := range []int{1, 2, 4} {
				m, _, err := Compress(a, Options{Alpha: alpha, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := m.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s α=%d: Encode at threads=%d differs from threads=1", name, alpha, threads)
				}
			}
		}
	}
}
