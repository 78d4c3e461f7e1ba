package shard

import (
	"math"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// testGraph builds a random symmetric binary graph with community
// structure (dense diagonal blocks plus sparse cross edges) — the
// regime where shard cuts produce both meaty intra blocks and a
// non-empty halo.
func testGraph(rng *xrand.RNG, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	block := n/4 + 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.02
			if i/block == j/block {
				p = 0.3
			}
			if rng.Float64() < p {
				coo.Append(i, j, 1)
				coo.Append(j, i, 1)
			}
		}
	}
	m := coo.ToCSR()
	for i := range m.Vals {
		m.Vals[i] = 1
	}
	return m
}

// refDAD computes D·(A+I)·D·b in float64 — the oracle the sharded
// float32 result must stay close to.
func refDAD(t *testing.T, a *sparse.CSR, b *dense.Matrix) []float64 {
	t.Helper()
	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, _ := na.Binary.Row(i)
		for _, k := range cols {
			w := float64(na.Diag[i]) * float64(na.Diag[k])
			brow := b.Row(int(k))
			for j := 0; j < b.Cols; j++ {
				out[i*b.Cols+j] += w * float64(brow[j])
			}
		}
	}
	return out
}

func TestPartitionByNNZInvariants(t *testing.T) {
	rng := xrand.New(70)
	for _, n := range []int{1, 2, 7, 64, 200} {
		a := testGraph(rng, n)
		for _, s := range []int{1, 2, 4, 8, n + 5} {
			p := PartitionByNNZ(a, s)
			// NewPartition re-validates: span, ascending, no empty shard.
			NewPartition(p.Offsets(), n)
			want := s
			if want > n {
				want = n
			}
			if p.NumShards() != want {
				t.Fatalf("n=%d s=%d: %d shards, want %d", n, s, p.NumShards(), want)
			}
			for i := 0; i < n; i++ {
				own := p.Owner(i)
				lo, hi := p.Bounds(own)
				if i < lo || i >= hi {
					t.Fatalf("n=%d s=%d: Owner(%d)=%d has bounds [%d,%d)", n, s, i, own, lo, hi)
				}
			}
		}
	}
}

func TestShardedMatchesReference(t *testing.T) {
	rng := xrand.New(71)
	for _, n := range []int{9, 50, 120} {
		a := testGraph(rng, n)
		b := dense.New(n, 7)
		rng.FillUniform(b.Data)
		want := refDAD(t, a, b)
		selfLoops := a.AddSelfLoops()
		for _, s := range []int{1, 2, 4, 8} {
			sa, stats, err := New(a, Options{Shards: s})
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			// Structural audit: intra+halo partition nnz(A+I) exactly, and
			// frontiers are sorted, deduped and out-of-block.
			sum := 0
			for sh := 0; sh < sa.NumShards(); sh++ {
				sum += stats.IntraNNZ[sh] + stats.HaloNNZ[sh]
				lo, hi := sa.Bounds(sh)
				fr := sa.Frontier(sh)
				for k, c := range fr {
					if int(c) >= lo && int(c) < hi {
						t.Fatalf("n=%d s=%d shard %d: frontier col %d inside [%d,%d)", n, s, sh, c, lo, hi)
					}
					if k > 0 && fr[k-1] >= c {
						t.Fatalf("n=%d s=%d shard %d: frontier not strictly ascending at %d", n, s, sh, k)
					}
				}
			}
			if sum != selfLoops.NNZ() {
				t.Fatalf("n=%d s=%d: intra+halo nnz %d, want nnz(A+I)=%d", n, s, sum, selfLoops.NNZ())
			}
			got := dense.New(n, b.Cols)
			sa.MulTo(got, b, 1)
			for i := range got.Data {
				w := want[i]
				if d := math.Abs(float64(got.Data[i]) - w); d > 1e-4+1e-3*math.Abs(w) {
					t.Fatalf("n=%d s=%d: out[%d] = %v, want %v (diff %v)", n, s, i, got.Data[i], w, d)
				}
			}
		}
	}
}

func TestShardedThreadInvariance(t *testing.T) {
	rng := xrand.New(72)
	a := testGraph(rng, 150)
	b := dense.New(150, 16)
	rng.FillUniform(b.Data)
	for _, s := range []int{2, 4, 8} {
		sa, _, err := New(a, Options{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		ref := dense.New(150, 16)
		sa.MulTo(ref, b, 1)
		for _, threads := range []int{2, 4, 8} {
			got := dense.New(150, 16)
			sa.MulTo(got, b, threads)
			if !got.Equal(ref) {
				t.Fatalf("s=%d threads=%d: output differs from sequential bitwise", s, threads)
			}
		}
	}
}

func TestShardedMulToCtxMatchesMulTo(t *testing.T) {
	rng := xrand.New(73)
	a := testGraph(rng, 90)
	b := dense.New(90, 5)
	rng.FillUniform(b.Data)
	sa, _, err := New(a, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := dense.New(90, 5)
	sa.MulTo(want, b, 2)
	ctx := exec.New(2)
	got := dense.New(90, 5)
	sa.MulToCtx(ctx, got, b)
	if !got.Equal(want) {
		t.Fatal("MulToCtx differs from MulTo bitwise")
	}
}

// TestSingleShardBitwiseMatchesUnsharded locks the composition
// contract documented in DESIGN.md §Sharding: at S=1 the sharded path
// is exactly the unsharded CBM under the same pinned plan, bitwise.
func TestSingleShardBitwiseMatchesUnsharded(t *testing.T) {
	rng := xrand.New(74)
	a := testGraph(rng, 110)
	b := dense.New(110, 9)
	rng.FillUniform(b.Data)
	sa, _, err := New(a, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := cbm.Compress(na.Binary, cbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dad := base.WithSymmetricScale(na.Diag)
	want := dense.New(110, 9)
	dad.MulToStrategy(want, b, 1, sa.Plan(0))
	got := dense.New(110, 9)
	sa.MulTo(got, b, 1)
	if !got.Equal(want) {
		t.Fatal("single-shard output differs bitwise from unsharded CBM under the pinned plan")
	}
}

func TestLeaseQuarantineCountsLeaks(t *testing.T) {
	rng := xrand.New(75)
	sa, _, err := New(testGraph(rng, 40), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ls := sa.newLease()
	leaked := ls.ctxs[0].Borrow(4, 4) // never released: a dirty lease
	_ = leaked
	sa.release(ls)
	if sa.ScratchLeaks() != 1 {
		t.Fatalf("ScratchLeaks = %d, want 1", sa.ScratchLeaks())
	}
	select {
	case back := <-sa.leases:
		if back == ls {
			t.Fatal("dirty lease was re-pooled")
		}
	default:
	}
	// Clean leases keep recycling.
	clean := sa.newLease()
	sa.release(clean)
	if got := <-sa.leases; got != clean {
		t.Fatal("clean lease not re-pooled")
	}
	if sa.ScratchLeaks() != 1 {
		t.Fatalf("ScratchLeaks moved to %d on a clean release", sa.ScratchLeaks())
	}
}

func TestProvisionScratchSizesPool(t *testing.T) {
	rng := xrand.New(76)
	sa, _, err := New(testGraph(rng, 30), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sa.ProvisionScratch(20)
	if cap(sa.leases) < 20 || len(sa.leases) != 20 {
		t.Fatalf("pool cap %d len %d, want ≥20 / 20", cap(sa.leases), len(sa.leases))
	}
	// Shrinking requests are no-ops: the pool never discards leases.
	sa.ProvisionScratch(2)
	if len(sa.leases) != 20 {
		t.Fatalf("pool len %d after smaller provision, want 20", len(sa.leases))
	}
}

func TestShardedMulZeroAllocAfterWarmup(t *testing.T) {
	rng := xrand.New(77)
	n := 80
	a := testGraph(rng, n)
	sa, _, err := New(a, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sa.ProvisionScratch(1)
	b := dense.New(n, 8)
	rng.FillUniform(b.Data)
	c := dense.New(n, 8)
	for i := 0; i < 3; i++ {
		sa.MulTo(c, b, 1) // warm the lease's arenas
	}
	allocs := testing.AllocsPerRun(50, func() {
		sa.MulTo(c, b, 1)
	})
	if allocs != 0 {
		t.Fatalf("sharded MulTo allocates %.1f per call after warm-up", allocs)
	}
}

func TestShardedShapePanics(t *testing.T) {
	rng := xrand.New(78)
	sa, _, err := New(testGraph(rng, 12), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ c, b *dense.Matrix }{
		{dense.New(12, 4), dense.New(11, 4)},
		{dense.New(11, 4), dense.New(12, 4)},
		{dense.New(12, 3), dense.New(12, 4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for c %dx%d b %dx%d", tc.c.Rows, tc.c.Cols, tc.b.Rows, tc.b.Cols)
				}
			}()
			sa.MulTo(tc.c, tc.b, 1)
		}()
	}
}
