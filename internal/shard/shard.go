package shard

import (
	"fmt"
	"sort"

	"repro/internal/cbm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Options configures New.
type Options struct {
	// Shards is the number of row blocks; < 1 selects 1, values above
	// the row count are clamped.
	Shards int
	// CBM configures the per-shard intra-block compression.
	CBM cbm.Options
	// ByRows selects the equal-row-count partition instead of the
	// default nnz-balanced cut (benchmarks and tests).
	ByRows bool
}

// Stats reports what the sharded build produced.
type Stats struct {
	// Shards is the effective block count after clamping.
	Shards int
	// Offsets are the partition cuts (length Shards+1).
	Offsets []int32
	// IntraNNZ / HaloNNZ are the per-shard nonzero counts of the
	// intra-block and cross-block halves of A+I. They sum to nnz(A+I).
	IntraNNZ []int
	HaloNNZ  []int
	// Frontier is the per-shard count of distinct out-of-block columns
	// — the rows of the operand a shard gathers per multiply.
	Frontier []int
	// ImbalancePermille is 1000·(max shard nnz − mean)/mean over the
	// shards' total (intra+halo) nonzeros; 0 is a perfectly balanced cut.
	ImbalancePermille int64
	// Plans are the pinned per-shard execution plans.
	Plans []cbm.UpdateStrategy
}

// shardPart is one row block's execution state: the intra-block CBM,
// the pinned plan, and the halo remainder over the shard's frontier.
type shardPart struct {
	lo, hi   int
	intra    *cbm.Matrix
	plan     cbm.UpdateStrategy
	frontier []int32     // sorted global columns outside [lo,hi) with entries in this block's rows
	halo     *sparse.CSR // (hi−lo) × len(frontier), columns compacted to frontier order
}

// New builds a ShardedAdjacency serving D·(A+I)·D for the binary
// symmetric adjacency a, split into opt.Shards contiguous row blocks.
// Each block's intra-block column range is compressed to its own CBM
// (scaled with the *global* degree diagonal, so block entries carry
// exactly the values of the unsharded operator); the cross-block
// remainder becomes a compact halo CSR over the block's frontier with
// values d[i]·d[j]. Partitioning uses the nnz-balanced cut by default.
func New(a *sparse.CSR, opt Options) (*ShardedAdjacency, Stats, error) {
	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("shard: %w", err)
	}
	n := na.Binary.Rows
	var part Partition
	if opt.ByRows {
		part = PartitionRows(n, opt.Shards)
	} else {
		part = PartitionByNNZ(na.Binary, opt.Shards)
	}
	return newFromPartition(na, part, opt)
}

// NewFromPartition is New with caller-supplied cuts (must satisfy
// NewPartition's invariants for a's row count).
func NewFromPartition(a *sparse.CSR, part Partition, opt Options) (*ShardedAdjacency, Stats, error) {
	na, err := graph.NewNormalizedAdjacency(a)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("shard: %w", err)
	}
	if got := int(part.offsets[len(part.offsets)-1]); got != na.Binary.Rows {
		panic(fmt.Sprintf("shard: partition spans %d rows, adjacency has %d", got, na.Binary.Rows))
	}
	return newFromPartition(na, part, opt)
}

func newFromPartition(na *graph.NormalizedAdjacency, part Partition, opt Options) (*ShardedAdjacency, Stats, error) {
	n := na.Binary.Rows
	shards := part.NumShards()
	stats := Stats{
		Shards:   shards,
		Offsets:  part.Offsets(),
		IntraNNZ: make([]int, shards),
		HaloNNZ:  make([]int, shards),
		Frontier: make([]int, shards),
		Plans:    make([]cbm.UpdateStrategy, shards),
	}
	sa := &ShardedAdjacency{n: n, parts: make([]shardPart, shards)}
	// compact[globalCol] = frontier position, rebuilt per shard.
	compact := make([]int32, n)
	for s := 0; s < shards; s++ {
		lo, hi := part.Bounds(s)
		p := &sa.parts[s]
		p.lo, p.hi = lo, hi

		intraCSR := na.Binary.Slice(lo, hi, lo, hi)
		intra, _, err := cbm.Compress(intraCSR, opt.CBM)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("shard %d [%d,%d): %w", s, lo, hi, err)
		}
		p.intra = intra.WithSymmetricScale(na.Diag[lo:hi])
		p.plan = p.intra.PlanFor(1, 1) // the rule ignores threads and width

		p.frontier, p.halo = buildHalo(na, lo, hi, compact)

		stats.IntraNNZ[s] = intraCSR.NNZ()
		stats.HaloNNZ[s] = p.halo.NNZ()
		stats.Frontier[s] = len(p.frontier)
		stats.Plans[s] = p.plan
		sa.haloNNZ += int64(p.halo.NNZ())
		sa.footprint += p.intra.FootprintBytes() + p.halo.FootprintBytes() + int64(4*len(p.frontier))
	}
	stats.ImbalancePermille = imbalancePermille(stats.IntraNNZ, stats.HaloNNZ)
	obs.Add(obs.CounterShardImbalancePermille, stats.ImbalancePermille)
	sa.stats = stats
	sa.leases = make(chan *lease, defaultLeaseCap)
	return sa, stats, nil
}

// buildHalo extracts rows [lo,hi) × columns outside [lo,hi) of A+I as
// a compact CSR over the block's frontier. The frontier is collected
// into a slice and sorted (never map-ordered — the determinism lint's
// sanctioned collect-then-sort form), so compact column order equals
// ascending global column order and halo accumulation is reproducible.
// Halo values are d[i]·d[j] — each a two-factor product, so the value
// computation has no order-sensitive summation at all.
func buildHalo(na *graph.NormalizedAdjacency, lo, hi int, compact []int32) ([]int32, *sparse.CSR) {
	b := na.Binary
	var frontier []int32
	nnz := 0
	for i := lo; i < hi; i++ {
		for _, c := range b.RowCols(i) {
			if int(c) < lo || int(c) >= hi {
				frontier = append(frontier, c)
				nnz++
			}
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	frontier = dedupeSorted(frontier)
	for k, c := range frontier {
		compact[c] = int32(k)
	}
	halo := &sparse.CSR{
		Rows:   hi - lo,
		Cols:   len(frontier),
		RowPtr: make([]int32, hi-lo+1),
		ColIdx: make([]int32, 0, nnz),
		Vals:   make([]float32, 0, nnz),
	}
	for i := lo; i < hi; i++ {
		for _, c := range b.RowCols(i) {
			if int(c) < lo || int(c) >= hi {
				halo.ColIdx = append(halo.ColIdx, compact[c])
				halo.Vals = append(halo.Vals, na.Diag[i]*na.Diag[c])
			}
		}
		halo.RowPtr[i-lo+1] = int32(len(halo.ColIdx))
	}
	return frontier, halo
}

func dedupeSorted(s []int32) []int32 {
	if len(s) == 0 {
		return s
	}
	w := 1
	for _, v := range s[1:] {
		if v != s[w-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

func imbalancePermille(intra, halo []int) int64 {
	var total, max int64
	for s := range intra {
		t := int64(intra[s] + halo[s])
		total += t
		if t > max {
			max = t
		}
	}
	if total == 0 {
		return 0
	}
	mean := total / int64(len(intra))
	if mean == 0 {
		return 0
	}
	return 1000 * (max - mean) / mean
}
