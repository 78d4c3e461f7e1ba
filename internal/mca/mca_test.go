package mca

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// bruteArborescence enumerates every parent assignment to find the
// exact minimum arborescence weight (exponential; test sizes only).
// Returns math.MaxInt64 when no arborescence exists.
func bruteArborescence(n int, root int32, edges []Edge) int64 {
	// best incoming edges per node grouped
	in := make([][]Edge, n)
	for _, e := range edges {
		if e.To != root && e.From != e.To {
			in[e.To] = append(in[e.To], e)
		}
	}
	nodes := []int32{}
	for i := int32(0); int(i) < n; i++ {
		if i != root {
			nodes = append(nodes, i)
		}
	}
	best := int64(math.MaxInt64)
	choice := make([]Edge, n)
	var rec func(k int, sum int64)
	rec = func(k int, sum int64) {
		if sum >= best {
			return
		}
		if k == len(nodes) {
			// check acyclic / all reach root
			for _, v := range nodes {
				x := v
				steps := 0
				for x != root {
					x = choice[x].From
					steps++
					if steps > n {
						return // cycle
					}
				}
			}
			best = sum
			return
		}
		v := nodes[k]
		for _, e := range in[v] {
			choice[v] = e
			rec(k+1, sum+e.W)
		}
	}
	rec(0, 0)
	return best
}

// validArborescence checks that parent defines a tree rooted at root
// using only existing edges, and returns its weight (min weight among
// parallel edges).
func validArborescence(t *testing.T, n int, root int32, edges []Edge, parent []int32) int64 {
	t.Helper()
	w := map[[2]int32]int64{}
	for _, e := range edges {
		key := [2]int32{e.From, e.To}
		if old, ok := w[key]; !ok || e.W < old {
			w[key] = e.W
		}
	}
	var total int64
	for v := int32(0); int(v) < n; v++ {
		if v == root {
			if parent[v] != -1 {
				t.Fatalf("parent[root] = %d", parent[v])
			}
			continue
		}
		p := parent[v]
		wt, ok := w[[2]int32{p, v}]
		if !ok {
			t.Fatalf("parent edge %d→%d does not exist", p, v)
		}
		total += wt
		// walk to root
		x := v
		for steps := 0; x != root; steps++ {
			if steps > n {
				t.Fatalf("cycle through node %d", v)
			}
			x = parent[x]
		}
	}
	return total
}

func TestArborescenceChain(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, W: 1},
		{From: 1, To: 2, W: 2},
		{From: 0, To: 2, W: 10},
	}
	parent, total, err := Arborescence(3, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if parent[1] != 0 || parent[2] != 1 {
		t.Fatalf("parent = %v", parent)
	}
}

func TestArborescenceCycleContraction(t *testing.T) {
	// Classic case requiring contraction: root reaches the 2-cycle
	// {1,2} cheaply only via node 1.
	edges := []Edge{
		{From: 0, To: 1, W: 5},
		{From: 0, To: 2, W: 100},
		{From: 1, To: 2, W: 1},
		{From: 2, To: 1, W: 1},
	}
	parent, total, err := Arborescence(3, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	got := validArborescence(t, 3, 0, edges, parent)
	if got != 6 {
		t.Fatalf("reconstructed weight = %d, want 6", got)
	}
}

func TestArborescenceUnreachable(t *testing.T) {
	edges := []Edge{{From: 0, To: 1, W: 1}} // node 2 has no in-edge
	_, _, err := Arborescence(3, 0, edges)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestArborescenceInvalidInputs(t *testing.T) {
	if _, _, err := Arborescence(0, 0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := Arborescence(3, 5, nil); err == nil {
		t.Fatal("root out of range accepted")
	}
	if _, _, err := Arborescence(2, 0, []Edge{{From: 0, To: 7, W: 1}}); err == nil {
		t.Fatal("edge out of range accepted")
	}
}

func TestArborescenceSingleNode(t *testing.T) {
	parent, total, err := Arborescence(1, 0, nil)
	if err != nil || total != 0 || parent[0] != -1 {
		t.Fatalf("single node: parent=%v total=%d err=%v", parent, total, err)
	}
}

func TestArborescenceSelfLoopsIgnored(t *testing.T) {
	edges := []Edge{
		{From: 1, To: 1, W: 0}, // self loop must not be chosen
		{From: 0, To: 1, W: 7},
	}
	parent, total, err := Arborescence(2, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 || parent[1] != 0 {
		t.Fatalf("self loop mishandled: total=%d parent=%v", total, parent)
	}
}

func TestArborescenceParallelEdges(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, W: 9},
		{From: 0, To: 1, W: 2},
		{From: 0, To: 1, W: 5},
	}
	_, total, err := Arborescence(2, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %d, want 2 (cheapest parallel edge)", total)
	}
}

// Property: algorithm weight equals brute force on small random
// digraphs, and the reconstructed parent array is a valid arborescence
// of exactly that weight.
func TestArborescenceMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(6)
		var edges []Edge
		// ensure reachability with root edges, then add noise
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{From: 0, To: int32(v), W: int64(rng.Intn(50) + 1)})
		}
		ne := rng.Intn(3 * n)
		for i := 0; i < ne; i++ {
			edges = append(edges, Edge{
				From: int32(rng.Intn(n)),
				To:   int32(rng.Intn(n)),
				W:    int64(rng.Intn(50) + 1),
			})
		}
		parent, total, err := Arborescence(n, 0, edges)
		if err != nil {
			return false
		}
		want := bruteArborescence(n, 0, edges)
		if total != want {
			t.Logf("seed %d: total=%d brute=%d", seed, total, want)
			return false
		}
		got := validArborescence(t, n, 0, edges, parent)
		if got != total {
			t.Logf("seed %d: reconstruction weight %d != reported %d", seed, got, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger-instance sanity — reconstruction weight equals the
// reported total on denser random graphs (brute force too slow there).
func TestArborescenceReconstructionConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(40)
		var edges []Edge
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{From: 0, To: int32(v), W: int64(rng.Intn(1000) + 1)})
		}
		for i := 0; i < 6*n; i++ {
			edges = append(edges, Edge{
				From: int32(rng.Intn(n)),
				To:   int32(rng.Intn(n)),
				W:    int64(rng.Intn(1000) + 1),
			})
		}
		parent, total, err := Arborescence(n, 0, edges)
		if err != nil {
			return false
		}
		return validArborescence(t, n, 0, edges, parent) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomMultigraph draws a directed multigraph over n nodes rooted at
// root with weights from a tiny range (so ties are everywhere), plus
// self-loops and parallel edges. With reachable set, every node gets
// a root edge; otherwise some nodes may be unreachable.
func randomMultigraph(rng *xrand.RNG, n int, root int32, reachable bool) []Edge {
	var edges []Edge
	maxW := 1 + rng.Intn(4)
	for v := int32(0); int(v) < n; v++ {
		if v != root && (reachable || rng.Intn(4) != 0) {
			edges = append(edges, Edge{From: root, To: v, W: int64(rng.Intn(maxW) + maxW)})
		}
	}
	for i := rng.Intn(4*n + 1); i > 0; i-- {
		from, to := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch rng.Intn(8) {
		case 0:
			to = from // self-loop
		case 1:
			if len(edges) > 0 { // parallel copy of an earlier edge
				e := edges[rng.Intn(len(edges))]
				from, to = e.From, e.To
			}
		}
		edges = append(edges, Edge{From: from, To: to, W: int64(rng.Intn(maxW))})
	}
	return edges
}

// The Solver must reproduce the reference solver exactly — same parent
// array (ties broken the same way), same total, same error — on
// tie-heavy multigraphs, with one Solver reused across all graphs so
// stale buffers from a larger earlier solve would show up.
func TestSolverMatchesReference(t *testing.T) {
	rng := xrand.New(17)
	var s Solver
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		if trial%100 == 0 {
			n = 200 + rng.Intn(300)
		}
		root := int32(rng.Intn(n))
		edges := randomMultigraph(rng, n, root, trial%5 != 0)
		wantP, wantT, wantErr := referenceArborescence(n, root, edges)
		gotP, gotT, gotErr := s.Solve(n, root, edges)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("trial %d (n=%d): err = %v, reference %v", trial, n, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if gotT != wantT {
			t.Fatalf("trial %d (n=%d): total = %d, reference %d", trial, n, gotT, wantT)
		}
		for v := range wantP {
			if gotP[v] != wantP[v] {
				t.Fatalf("trial %d (n=%d): parent[%d] = %d, reference %d", trial, n, v, gotP[v], wantP[v])
			}
		}
	}
}

// A reused Solver allocates nothing once its buffers have grown to the
// largest graph it has seen.
func TestSolverReuseZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	edges := randomMultigraph(rng, 60, 0, true)
	var s Solver
	if _, _, err := s.Solve(60, 0, edges); err != nil {
		t.Fatal(err)
	}
	small := randomMultigraph(rng, 20, 0, true)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.Solve(20, 0, small); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Solve(60, 0, edges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused Solver allocates %.1f times per solve pair", allocs)
	}
}
