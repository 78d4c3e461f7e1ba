package cbm

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// randomBinary builds a random symmetric binary matrix (a graph) plus
// optional asymmetric noise to exercise non-graph inputs.
func randomBinary(rng *xrand.RNG, n int, density float64, symmetric bool) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if symmetric && j < i {
				continue
			}
			if rng.Float64() < density {
				coo.Append(i, j, 1)
				if symmetric {
					coo.Append(j, i, 1)
				}
			}
		}
	}
	m := coo.ToCSR()
	for i := range m.Vals {
		m.Vals[i] = 1
	}
	return m
}

func randomDense(rng *xrand.RNG, rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	rng.FillUniform(m.Data)
	return m
}

// paperFig1Matrix is the style of matrix from the paper's Fig. 1: rows
// sharing most of their support, so real compression happens.
func paperFig1Matrix() *sparse.CSR {
	adj := [][]int32{
		{0, 1, 2, 3},
		{0, 1, 2, 3, 4},
		{1, 2, 3},
		{0, 1, 2, 3, 4, 5},
		{2, 3},
		{0, 5},
	}
	return sparse.FromAdjacency(6, 6, adj)
}

func TestCompressRoundTrip(t *testing.T) {
	a := paperFig1Matrix()
	for _, alpha := range []int{0, 1, 2, 4} {
		m, stats, err := Compress(a, Options{Alpha: alpha, Threads: 1})
		if err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		back := m.ToCSR()
		if !back.ToDense().Equal(a.ToDense()) {
			t.Fatalf("alpha=%d: decompression differs", alpha)
		}
		if stats.TreeWeight != int64(m.NumDeltas()) {
			t.Fatalf("alpha=%d: tree weight %d != deltas %d", alpha, stats.TreeWeight, m.NumDeltas())
		}
	}
}

func TestProperty1DeltasNeverExceedNNZ(t *testing.T) {
	// Property 1 of the paper: total deltas ≤ nnz(A).
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(40)
		a := randomBinary(rng, n, 0.2, rng.Float64() < 0.5)
		for _, alpha := range []int{0, 1, 3} {
			m, _, err := Compress(a, Options{Alpha: alpha, Threads: 1})
			if err != nil {
				return false
			}
			if m.NumDeltas() > a.NNZ() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(35)
		a := randomBinary(rng, n, 0.15+0.3*rng.Float64(), rng.Float64() < 0.7)
		alpha := rng.Intn(5)
		m, _, err := Compress(a, Options{Alpha: alpha, Threads: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		return m.ToCSR().ToDense().Equal(a.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTAndMCAAgreeAtAlphaZero(t *testing.T) {
	// With α = 0 the MST (undirected view) and the MCA (directed view)
	// must find compression trees with identical total delta counts.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		a := randomBinary(rng, n, 0.25, true)
		mMST, sMST, err := Compress(a, Options{Alpha: 0, Threads: 1})
		if err != nil {
			return false
		}
		mMCA, sMCA, err := Compress(a, Options{Alpha: 0, Threads: 1, ForceMCA: true})
		if err != nil {
			return false
		}
		if sMST.TreeWeight != sMCA.TreeWeight {
			t.Logf("seed %d: MST weight %d, MCA weight %d", seed, sMST.TreeWeight, sMCA.TreeWeight)
			return false
		}
		return mMST.NumDeltas() == mMCA.NumDeltas()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaMonotonicity(t *testing.T) {
	// Raising α can only increase the virtual root's fan-out and the
	// number of deltas (compression gets worse, parallelism better).
	rng := xrand.New(77)
	a := synth.SBMGroups(600, 20, 0.8, 0.5, 123)
	prevKids := -1
	prevDeltas := -1
	b, err := NewBuilder(a, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []int{0, 1, 2, 4, 8, 16, 32} {
		m, stats, err := b.Compress(alpha, false)
		if err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		if prevKids >= 0 && stats.VirtualKids < prevKids {
			t.Fatalf("alpha=%d: virtual kids decreased %d → %d", alpha, prevKids, stats.VirtualKids)
		}
		if prevDeltas >= 0 && m.NumDeltas() < prevDeltas {
			t.Fatalf("alpha=%d: deltas decreased %d → %d", alpha, prevDeltas, m.NumDeltas())
		}
		prevKids = stats.VirtualKids
		prevDeltas = m.NumDeltas()
	}
	_ = rng
}

func TestCompressRejectsBadInput(t *testing.T) {
	if _, _, err := Compress(sparse.NewCSR(2, 3), Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
	coo := sparse.NewCOO(2, 2)
	coo.Append(0, 1, 2.5)
	if _, _, err := Compress(coo.ToCSR(), Options{}); err == nil {
		t.Fatal("non-binary accepted")
	}
	if _, _, err := Compress(sparse.NewCSR(0, 0), Options{}); err != nil {
		t.Fatalf("empty matrix rejected: %v", err)
	}
	b, err := NewBuilder(paperFig1Matrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Compress(-1, false); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestCompressEmptyAndTinyMatrices(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		a := sparse.NewCSR(n, n)
		m, stats, err := Compress(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.NumDeltas() != 0 || stats.TreeWeight != 0 {
			t.Fatalf("n=%d: empty matrix produced deltas", n)
		}
		b := randomDense(xrand.New(1), n, 3)
		c := m.Mul(b)
		for _, v := range c.Data {
			if v != 0 {
				t.Fatalf("n=%d: empty product nonzero", n)
			}
		}
	}
}

func TestIdenticalRowsCompressToOneDelta(t *testing.T) {
	// Five identical rows: one stored fully, four with zero deltas.
	adj := make([][]int32, 5)
	for i := range adj {
		adj[i] = []int32{0, 2, 4}
	}
	a := sparse.FromAdjacency(5, 5, adj)
	m, stats, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDeltas() != 3 {
		t.Fatalf("deltas = %d, want 3 (one full row)", m.NumDeltas())
	}
	if stats.VirtualKids != 1 {
		t.Fatalf("virtual kids = %d, want 1", stats.VirtualKids)
	}
	if !m.ToCSR().ToDense().Equal(a.ToDense()) {
		t.Fatal("round trip differs")
	}
}

func TestFootprintNeverWorseThanCSRPlusTree(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(40)
		a := randomBinary(rng, n, 0.25, true)
		m, _, err := Compress(a, Options{Alpha: 0})
		if err != nil {
			return false
		}
		// Delta nnz ≤ nnz(A) (Property 1) ⇒ CBM ≤ CSR + 8 bytes/edge.
		return m.FootprintBytes() <= a.FootprintBytes()+int64(8*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A built matrix of every kind keeps no reference to the CSR it was
// built from: a finalizer on the input must run after a GC while the
// matrices are still live, so the input's memory is reclaimable and
// the matrix holds what FootprintBytes reports, not the source too.
func TestBuiltMatrixKeepsNoInputReference(t *testing.T) {
	freed := make(chan struct{})
	build := func() []*Matrix {
		a := synth.SBMGroups(200, 20, 0.8, 0.4, 3)
		runtime.SetFinalizer(a, func(*sparse.CSR) { close(freed) })
		base, _, err := Compress(a, Options{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		d := randomDiag(xrand.New(3), a.Rows)
		return []*Matrix{base, base.WithColumnScale(d), base.WithSymmetricScale(d)}
	}
	ms := build()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(ms)
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	runtime.KeepAlive(ms)
	t.Fatal("the input CSR is still reachable from a built matrix after 20 GCs")
}

func TestHighSimilarityGraphCompresses(t *testing.T) {
	// An SBM with nearly identical rows inside groups must compress
	// well (this is the COLLAB regime of the paper).
	a := synth.SBMGroups(800, 40, 0.95, 0.2, 42)
	m, _, err := Compress(a, Options{Alpha: 0, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.FootprintBytes()) / float64(m.FootprintBytes())
	if ratio < 2 {
		t.Fatalf("compression ratio = %.2f, want ≥ 2 on a high-similarity SBM", ratio)
	}
}

func TestLowSimilarityGraphDoesNotExplode(t *testing.T) {
	// A sparse random graph has little row similarity; CBM may not
	// compress but must never be much worse than CSR (Property 1 +
	// bounded tree overhead).
	a := synth.ErdosRenyi(500, 4, 7)
	m, _, err := Compress(a, Options{Alpha: 0, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.FootprintBytes() > a.FootprintBytes()+int64(8*a.Rows) {
		t.Fatalf("CBM footprint %d ≫ CSR %d", m.FootprintBytes(), a.FootprintBytes())
	}
}

func TestBuilderReuseAcrossAlphas(t *testing.T) {
	a := synth.SBMGroups(300, 15, 0.7, 0.5, 9)
	b, err := NewBuilder(a, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []int{0, 2, 8} {
		m, _, err := b.Compress(alpha, false)
		if err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		if !m.ToCSR().ToDense().Equal(a.ToDense()) {
			t.Fatalf("alpha=%d: round trip differs", alpha)
		}
	}
}

func TestMaxCandidatesStillCorrect(t *testing.T) {
	a := synth.SBMGroups(400, 20, 0.8, 0.5, 5)
	m, _, err := Compress(a, Options{Alpha: 0, MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToCSR().ToDense().Equal(a.ToDense()) {
		t.Fatal("round trip differs with MaxCandidates")
	}
	if m.NumDeltas() > a.NNZ() {
		t.Fatal("Property 1 violated with MaxCandidates")
	}
}

func TestBranchesCoverAllRowsExactlyOnce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(50)
		a := randomBinary(rng, n, 0.2, true)
		m, _, err := Compress(a, Options{Alpha: rng.Intn(4)})
		if err != nil {
			return false
		}
		seen := make([]int, n)
		for bi := 0; bi < m.NumBranches(); bi++ {
			for _, x := range m.order[m.branchOff[bi]:m.branchOff[bi+1]] {
				seen[x]++
			}
		}
		for x, c := range seen {
			if c != 1 {
				return false
			}
			_ = x
		}
		// pre-order: parent appears before child within a branch
		pos := make([]int, n)
		idx := 0
		for _, x := range m.order {
			pos[x] = idx
			idx++
		}
		for x := 0; x < n; x++ {
			if p := m.Parent(x); p >= 0 && pos[p] >= pos[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	a := paperFig1Matrix()
	m, stats, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreeEdges+stats.VirtualKids != a.Rows {
		t.Fatalf("tree edges %d + virtual kids %d != rows %d",
			stats.TreeEdges, stats.VirtualKids, a.Rows)
	}
	if stats.Depth < 1 {
		t.Fatalf("depth = %d", stats.Depth)
	}
	if stats.Total() <= 0 {
		t.Fatal("total build time not recorded")
	}
	if m.Kind() != KindA {
		t.Fatalf("kind = %v", m.Kind())
	}
}

func TestSpMMAgreementSmokeLikePaper(t *testing.T) {
	// The paper validates by multiplying each compressed graph with 50
	// random 500-column matrices at 1e-5 relative tolerance; this is
	// the scaled version of that check.
	a := synth.SBMGroups(300, 20, 0.85, 0.5, 99)
	m, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		b := randomDense(rng, a.Rows, 50)
		got := m.MulParallel(b, 4)
		want := kernels.SpMMParallel(a, b, 4)
		if d := dense.MaxRelDiff(got, want, 1); d > 1e-5 {
			t.Fatalf("trial %d: rel diff %v", trial, d)
		}
	}
}

// fromAdjForTest wraps sparse.FromAdjacency for sibling test files.
func fromAdjForTest(n int, adj [][]int32) *sparse.CSR {
	return sparse.FromAdjacency(n, n, adj)
}

func TestTreeDepthChainAndStar(t *testing.T) {
	// chain 0←1←2←3 (0 is virtual child)
	chain := []int32{-1, 0, 1, 2}
	if d := treeDepth(chain); d != 4 {
		t.Fatalf("chain depth = %d, want 4", d)
	}
	// star: all virtual children
	star := []int32{-1, -1, -1}
	if d := treeDepth(star); d != 1 {
		t.Fatalf("star depth = %d, want 1", d)
	}
	if d := treeDepth(nil); d != 0 {
		t.Fatalf("empty depth = %d, want 0", d)
	}
}

func TestBranchDecomposeShapes(t *testing.T) {
	// two branches: {0,1,2} (0←1←2) and {3,4} (3←4)
	parent := []int32{-1, 0, 1, -1, 3}
	order, off := branchDecompose(parent)
	if len(off) != 3 || len(order) != len(parent) {
		t.Fatalf("branch offsets %v over %d rows, want 2 branches over %d", off, len(order), len(parent))
	}
	// largest first
	if off[1]-off[0] != 3 || off[2]-off[1] != 2 {
		t.Fatalf("branch sizes %d, %d", off[1]-off[0], off[2]-off[1])
	}
	if order[off[0]] != 0 || order[off[1]] != 3 {
		t.Fatalf("branch roots %d, %d", order[off[0]], order[off[1]])
	}
}

func TestHammingSorted(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{nil, nil, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 0},
		{[]int32{1, 2}, []int32{3, 4}, 4},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{5}, nil, 1},
	}
	for _, c := range cases {
		if got := hammingSorted(c.a, c.b); got != c.want {
			t.Fatalf("hamming(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := hammingSorted(c.b, c.a); got != c.want {
			t.Fatalf("hamming not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestIntersectingPairsRecorded(t *testing.T) {
	a := synth.SBMGroups(200, 20, 0.8, 0.5, 8)
	_, stats, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IntersectingPairs < int64(stats.CandidateEdges) {
		t.Fatalf("intersecting pairs %d < stored candidates %d",
			stats.IntersectingPairs, stats.CandidateEdges)
	}
	if stats.IntersectingPairs == 0 {
		t.Fatal("no intersecting pairs recorded on a community graph")
	}
}

func TestKindString(t *testing.T) {
	if KindA.String() != "A" || KindAD.String() != "AD" || KindDAD.String() != "DAD" {
		t.Fatal("kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind string = %q", Kind(99).String())
	}
}

func TestExactCompressionIsPermutationInvariant(t *testing.T) {
	// The exact build's footprint must not change under symmetric
	// permutation P·A·Pᵀ: candidates are global and the tree solvers are
	// optimal, so a row order can buy locality but never exact ratio.
	a := synth.HolmeKim(600, 2, 0.4, 12)
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int32, a.Rows)
	for i, p := range xrand.New(5).Perm(a.Rows) {
		perm[i] = int32(p)
	}
	mp, _, err := Compress(a.PermuteSymmetric(perm), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.FootprintBytes() != mp.FootprintBytes() {
		t.Fatalf("exact footprint changed under permutation: %d vs %d",
			m.FootprintBytes(), mp.FootprintBytes())
	}
	if m.NumDeltas() != mp.NumDeltas() {
		t.Fatalf("delta count changed under permutation: %d vs %d", m.NumDeltas(), mp.NumDeltas())
	}
}
