// Clustered compression — the scalability extension the paper's final
// remarks sketch: "clustering similar rows of the graph's adjacency
// matrix and subsequently computing a partial CBM format for each
// cluster", bounding the memory the AAᵀ candidate pass needs (the
// paper reports 92 GiB for Reddit without it).
//
// Rows are clustered by MinHash signatures of their column sets: rows
// with similar neighbourhoods collide with probability equal to their
// Jaccard similarity, so the clusters keep most of the compression
// opportunity while candidate lists shrink from "every row sharing a
// column" to "same-cluster rows sharing a column". The per-cluster
// partial trees all share the virtual root, so the result is a single
// ordinary CBM matrix — every kernel, property test and serialization
// path applies unchanged.

package cbm

import (
	"fmt"

	"repro/internal/reorder"
	"repro/internal/sparse"
)

// ClusterOptions configures CompressClustered.
type ClusterOptions struct {
	// Hashes is the MinHash signature length; all Hashes values must
	// collide for two rows to share a cluster, so larger values give
	// smaller, purer clusters (less memory, less compression).
	// Default 2.
	Hashes int
	// Seed drives the hash functions.
	Seed uint64
}

// ClusterStats reports how the rows were partitioned.
type ClusterStats struct {
	Clusters       int
	LargestCluster int
	CandidateEdges int // surviving candidate edges (memory proxy)
}

// CompressClustered compresses a like Compress but restricts parent
// candidates to MinHash clusters, bounding candidate memory on graphs
// whose AAᵀ is too dense for the exact pass. Compression quality is at
// most that of Compress (fewer candidates), and Property 1 still holds
// (the virtual root is always available).
func CompressClustered(a *sparse.CSR, opt Options, copt ClusterOptions) (*Matrix, BuildStats, ClusterStats, error) {
	if err := checkShape(a); err != nil {
		return nil, BuildStats{}, ClusterStats{}, err
	}
	if err := a.Validate(); err != nil {
		return nil, BuildStats{}, ClusterStats{}, err
	}
	if opt.Alpha < 0 {
		return nil, BuildStats{}, ClusterStats{}, fmt.Errorf("cbm: alpha must be ≥ 0, got %d", opt.Alpha)
	}
	hashes := copt.Hashes
	if hashes <= 0 {
		hashes = 2
	}

	cluster, cstats := minhashClusters(a, hashes, copt.Seed, opt.Threads)

	stats := BuildStats{Alpha: opt.Alpha}
	start := buildClock.Now()
	cand, pairs := buildCandidates(a, opt.Threads, opt.MaxCandidates, cluster, opt.Window)
	stats.CandidateTime = buildClock.Now().Sub(start)
	stats.IntersectingPairs = pairs
	cstats.CandidateEdges = candidateEdgeCount(cand)
	stats.CandidateEdges = cstats.CandidateEdges

	treeStart := buildClock.Now()
	var parent []int32
	var total int64
	var err error
	if opt.Alpha == 0 && !opt.ForceMCA {
		parent, total = buildTreeMST(a, cand)
	} else {
		parent, total, err = buildTreeMCA(a, cand, opt.Alpha)
		if err != nil {
			return nil, BuildStats{}, ClusterStats{}, err
		}
	}
	stats.TreeTime = buildClock.Now().Sub(treeStart)
	stats.TreeWeight = total
	for _, p := range parent {
		if p < 0 {
			stats.VirtualKids++
		} else {
			stats.TreeEdges++
		}
	}
	stats.Depth = treeDepth(parent)

	deltaStart := buildClock.Now()
	delta := buildDeltaMatrix(a, parent, opt.Threads)
	stats.DeltaTime = buildClock.Now().Sub(deltaStart)

	m := &Matrix{
		n:        a.Rows,
		kind:     KindA,
		delta:    delta,
		parent:   parent,
		branches: branchDecompose(parent),
		src:      a,
	}
	return m, stats, cstats, nil
}

// minhashClusters assigns every row a cluster id: rows whose full
// MinHash signature matches share a cluster. Empty rows all map to one
// cluster (they carry no compression opportunity anyway). The per-hash
// minima come from the shared internal/reorder signature kernel; this
// function only folds them into one word and buckets the rows.
func minhashClusters(a *sparse.CSR, hashes int, seed uint64, threads int) ([]int32, ClusterStats) {
	n := a.Rows
	cluster := make([]int32, n)
	sigs := make([]uint64, n)
	mat := reorder.Signatures(a, hashes, seed, threads)

	for x := 0; x < n; x++ {
		if a.RowNNZ(x) == 0 {
			sigs[x] = 0
			continue
		}
		// Combine the per-hash minima into one signature word (FNV fold).
		var sig uint64 = 0xcbf29ce484222325
		for _, min := range mat[x*hashes : (x+1)*hashes] {
			sig = (sig ^ min) * 0x100000001b3
		}
		if sig == 0 {
			sig = 1 // reserve 0 for empty rows
		}
		sigs[x] = sig
	}

	ids := make(map[uint64]int32, n/4)
	sizes := []int{}
	for x := 0; x < n; x++ {
		id, ok := ids[sigs[x]]
		if !ok {
			id = int32(len(sizes))
			ids[sigs[x]] = id
			sizes = append(sizes, 0)
		}
		cluster[x] = id
		sizes[id]++
	}
	stats := ClusterStats{Clusters: len(sizes)}
	for _, sz := range sizes {
		if sz > stats.LargestCluster {
			stats.LargestCluster = sz
		}
	}
	return cluster, stats
}
