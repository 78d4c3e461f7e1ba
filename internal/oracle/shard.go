// Shard composition checks: the correctness contract of the row-block
// shard layer (internal/shard). Four properties are asserted per
// configuration: thread-count invariance (bitwise — shards write
// disjoint output slabs in fixed per-shard order), ctx/non-ctx entry
// equivalence (bitwise), single-shard identity against the unsharded
// CBM under the same pinned plan (bitwise), and closeness to the
// float64 normalized-product oracle (tolerance — for S > 1 the
// per-shard trees split each row's sum into intra + halo partial sums,
// a different but fixed association than the unsharded tree, so the
// composed result is numerically equivalent, not bit-equal; DESIGN.md
// §Sharding).

package oracle

import (
	"fmt"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// CheckShardEquivalence verifies the shard-composed product of the
// binary adjacency a against the unsharded reference for one
// (shards, threads) configuration. b is the dense operand. The
// structural split (intra + halo nonzeros partitioning A+I, sorted
// frontiers) is re-audited here from the public accessors, so a shard
// build that silently dropped entries fails even when the numbers
// happen to land close.
func CheckShardEquivalence(a *sparse.CSR, b *dense.Matrix, shards, threads int, opt cbm.Options, tol Tolerance) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("oracle: CheckShardEquivalence needs a square adjacency, got %d×%d", a.Rows, a.Cols))
	}
	if b.Rows != a.Rows {
		panic(fmt.Sprintf("oracle: CheckShardEquivalence operand has %d rows, want %d", b.Rows, a.Rows))
	}
	sa, stats, err := shard.New(a, shard.Options{Shards: shards, CBM: opt})
	if err != nil {
		return fmt.Errorf("shard equivalence: build: %w", err)
	}
	if err := auditShardStructure(a, sa, stats); err != nil {
		return err
	}

	got := dense.New(a.Rows, b.Cols)
	sa.MulTo(got, b, threads)

	// Bitwise thread invariance: the requested thread count against the
	// sequential schedule.
	if threads != 1 {
		seq := dense.New(a.Rows, b.Cols)
		sa.MulTo(seq, b, 1)
		if !got.Equal(seq) {
			return fmt.Errorf("shard equivalence (shards=%d): threads=%d output differs bitwise from threads=1", shards, threads)
		}
	}

	// Bitwise ctx entry equivalence: MulToCtx must be the same compute.
	ctx := exec.New(threads)
	viaCtx := dense.New(a.Rows, b.Cols)
	sa.MulToCtx(ctx, viaCtx, b)
	if !viaCtx.Equal(got) {
		return fmt.Errorf("shard equivalence (shards=%d, threads=%d): MulToCtx differs bitwise from MulTo", shards, threads)
	}

	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		return fmt.Errorf("shard equivalence: normalize: %w", err)
	}

	// Single-shard identity: with one shard there is no halo and no
	// re-association, so the sharded path must be exactly the unsharded
	// CBM under the shard's pinned plan.
	if sa.NumShards() == 1 {
		base, _, err := cbm.Compress(na.Binary, opt)
		if err != nil {
			return fmt.Errorf("shard equivalence: compress unsharded: %w", err)
		}
		want := dense.New(a.Rows, b.Cols)
		base.WithSymmetricScale(na.Diag).MulToStrategy(want, b, threads, sa.Plan(0))
		if !got.Equal(want) {
			return fmt.Errorf("shard equivalence (shards=1, threads=%d): output differs bitwise from the unsharded CBM under plan %v", threads, sa.Plan(0))
		}
	}

	// Numerical equivalence against the independent float64 oracle.
	want := CSRProduct(Operand(na.Binary, cbm.KindDAD, na.Diag), b)
	if d := Compare(got, want, tol); d != nil {
		return fmt.Errorf("shard equivalence (shards=%d, threads=%d): %w", shards, threads, d)
	}
	return nil
}

// auditShardStructure re-derives the intra/halo split invariants from
// the sharded adjacency's public accessors: every shard's frontier is
// strictly ascending and disjoint from its own row range, and the
// per-shard intra+halo nonzero counts partition nnz(A+I) exactly.
func auditShardStructure(a *sparse.CSR, sa *shard.ShardedAdjacency, stats shard.Stats) error {
	if sa.Rows() != a.Rows {
		return fmt.Errorf("shard structure: %d rows served, adjacency has %d", sa.Rows(), a.Rows)
	}
	total := 0
	for s := 0; s < sa.NumShards(); s++ {
		lo, hi := sa.Bounds(s)
		if lo < 0 || hi <= lo || hi > a.Rows {
			return fmt.Errorf("shard structure: shard %d bounds [%d,%d) invalid for %d rows", s, lo, hi, a.Rows)
		}
		if s == 0 && lo != 0 {
			return fmt.Errorf("shard structure: first shard starts at %d, want 0", lo)
		}
		if s > 0 {
			if _, prevHi := sa.Bounds(s - 1); prevHi != lo {
				return fmt.Errorf("shard structure: gap between shard %d and %d (%d != %d)", s-1, s, prevHi, lo)
			}
		}
		if s == sa.NumShards()-1 && hi != a.Rows {
			return fmt.Errorf("shard structure: last shard ends at %d, want %d", hi, a.Rows)
		}
		fr := sa.Frontier(s)
		for k, c := range fr {
			if int(c) < 0 || int(c) >= a.Rows {
				return fmt.Errorf("shard structure: shard %d frontier col %d out of range", s, c)
			}
			if int(c) >= lo && int(c) < hi {
				return fmt.Errorf("shard structure: shard %d frontier col %d inside own block [%d,%d)", s, c, lo, hi)
			}
			if k > 0 && fr[k-1] >= c {
				return fmt.Errorf("shard structure: shard %d frontier not strictly ascending at %d", s, k)
			}
		}
		total += stats.IntraNNZ[s] + stats.HaloNNZ[s]
	}
	if want := a.AddSelfLoops().NNZ(); total != want {
		return fmt.Errorf("shard structure: intra+halo nnz %d, want nnz(A+I) = %d", total, want)
	}
	return nil
}
