package cbm

import (
	"testing"
	"testing/quick"

	"repro/internal/synth"
	"repro/internal/xrand"
)

func TestClusteredRoundTrip(t *testing.T) {
	a := synth.SBMGroups(600, 30, 0.85, 0.5, 9)
	m, stats, cstats, err := CompressClustered(a, Options{Alpha: 0}, ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToCSR().ToDense().Equal(a.ToDense()) {
		t.Fatal("clustered decompression differs")
	}
	if cstats.Clusters < 2 {
		t.Fatalf("expected multiple clusters, got %d", cstats.Clusters)
	}
	if stats.TreeWeight != int64(m.NumDeltas()) {
		t.Fatal("stats mismatch")
	}
}

func TestClusteredProperty1AndMemoryBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(60)
		a := randomBinary(rng, n, 0.15+0.25*rng.Float64(), true)
		alpha := rng.Intn(4)
		m, _, cstats, err := CompressClustered(a, Options{Alpha: alpha}, ClusterOptions{Seed: seed})
		if err != nil {
			return false
		}
		// Property 1 survives clustering.
		if m.NumDeltas() > a.NNZ() {
			return false
		}
		// Candidate memory never exceeds the exact pass.
		full, err := NewBuilder(a, Options{})
		if err != nil {
			return false
		}
		fullEdges := candidateEdgeCount(full.cand)
		if cstats.CandidateEdges > fullEdges {
			return false
		}
		return m.ToCSR().ToDense().Equal(a.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredKeepsMostCompressionOnTightGroups(t *testing.T) {
	// Nearly identical rows within groups: MinHash should keep groups
	// together, so clustered compression stays close to exact.
	a := synth.SBMGroups(1000, 40, 0.95, 0.0, 4)
	exact, _, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, cstats, err := CompressClustered(a, Options{Alpha: 0}, ClusterOptions{Hashes: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	exactRatio := float64(a.FootprintBytes()) / float64(exact.FootprintBytes())
	clusterRatio := float64(a.FootprintBytes()) / float64(clustered.FootprintBytes())
	if clusterRatio < exactRatio/3 {
		t.Fatalf("clustered ratio %.2f lost too much vs exact %.2f (clusters=%d, largest=%d)",
			clusterRatio, exactRatio, cstats.Clusters, cstats.LargestCluster)
	}
	if clusterRatio < 1.5 {
		t.Fatalf("clustered ratio %.2f: compression collapsed", clusterRatio)
	}
}

func TestClusteredMoreHashesMoreClusters(t *testing.T) {
	a := synth.SBMGroups(800, 20, 0.7, 0.5, 6)
	_, _, c1, err := CompressClustered(a, Options{}, ClusterOptions{Hashes: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, _, c4, err := CompressClustered(a, Options{}, ClusterOptions{Hashes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c4.Clusters < c1.Clusters {
		t.Fatalf("hashes=4 gave %d clusters < hashes=1's %d", c4.Clusters, c1.Clusters)
	}
	if c4.CandidateEdges > c1.CandidateEdges {
		t.Fatalf("more hashes should not increase candidates: %d > %d",
			c4.CandidateEdges, c1.CandidateEdges)
	}
}

func TestClusteredRejectsBadInput(t *testing.T) {
	a := paperFig1Matrix()
	if _, _, _, err := CompressClustered(a, Options{Alpha: -1}, ClusterOptions{}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	coo := randomBinary(xrand.New(1), 4, 0.5, false)
	coo.Vals[0] = 3
	if _, _, _, err := CompressClustered(coo, Options{}, ClusterOptions{}); err == nil {
		t.Fatal("non-binary accepted")
	}
}

func TestMinhashClustersDirect(t *testing.T) {
	// Two interleaved row patterns plus empty rows: the clusterer must
	// produce exactly three clusters (one per pattern, one for empties)
	// with the right sizes, independent of thread count.
	adj := make([][]int32, 30)
	for i := range adj {
		switch i % 3 {
		case 0:
			adj[i] = []int32{1, 4, 7}
		case 1:
			adj[i] = []int32{2, 5, 8}
		default:
			adj[i] = nil
		}
	}
	a := fromAdjForTest(30, adj)
	c1, s1 := minhashClusters(a, 2, 3, 1)
	c4, s4 := minhashClusters(a, 2, 3, 4)
	if s1 != s4 {
		t.Fatalf("stats differ across threads: %+v vs %+v", s1, s4)
	}
	for i := range c1 {
		if c1[i] != c4[i] {
			t.Fatalf("cluster assignment differs across threads at row %d", i)
		}
	}
	if s1.Clusters != 3 {
		t.Fatalf("clusters = %d, want 3", s1.Clusters)
	}
	if s1.LargestCluster != 10 {
		t.Fatalf("largest cluster = %d, want 10", s1.LargestCluster)
	}
	// Same pattern ⇒ same cluster; different patterns ⇒ different.
	for i := 3; i < 30; i++ {
		if c1[i] != c1[i%3] {
			t.Fatalf("row %d not clustered with its pattern", i)
		}
	}
	if c1[0] == c1[1] || c1[0] == c1[2] || c1[1] == c1[2] {
		t.Fatalf("distinct patterns share a cluster: %v", c1[:3])
	}
	// CandidateEdges is filled later by CompressClustered, not here.
	if s1.CandidateEdges != 0 {
		t.Fatalf("CandidateEdges pre-filled: %d", s1.CandidateEdges)
	}
}

func TestMinhashClustersMatchesSharedSignatureKernel(t *testing.T) {
	// The cluster partition must follow the minhashSignatures kernel
	// exactly: rows agree on every per-hash minimum iff they share a
	// cluster (modulo the empty-row bucket).
	a := synth.SBMGroups(300, 15, 0.75, 0.6, 21)
	const hashes, seed = 3, 17
	cluster, _ := minhashClusters(a, hashes, seed, 2)
	sigs := minhashSignatures(a, hashes, seed, 2)
	sameSig := func(x, y int) bool {
		for k := 0; k < hashes; k++ {
			if sigs[x*hashes+k] != sigs[y*hashes+k] {
				return false
			}
		}
		return true
	}
	for x := 0; x < a.Rows; x++ {
		for y := x + 1; y < a.Rows; y++ {
			if a.RowNNZ(x) == 0 || a.RowNNZ(y) == 0 {
				continue
			}
			if (cluster[x] == cluster[y]) != sameSig(x, y) {
				t.Fatalf("rows %d,%d: cluster agreement %v but signature agreement %v",
					x, y, cluster[x] == cluster[y], sameSig(x, y))
			}
		}
	}
}

func TestClusteredEmptyRowsShareCluster(t *testing.T) {
	// Matrix with several empty rows: they all carry signature 0 and
	// must not break anything.
	adj := [][]int32{{1, 2}, {}, {}, {1, 2}, {}}
	a := fromAdjForTest(5, adj)
	m, _, _, err := CompressClustered(a, Options{}, ClusterOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToCSR().ToDense().Equal(a.ToDense()) {
		t.Fatal("round trip with empty rows differs")
	}
}

func TestMinhashSignaturesEmptyRows(t *testing.T) {
	a := fromAdjForTest(3, [][]int32{{0, 1}, {}, {0, 1}})
	sigs := minhashSignatures(a, 3, 7, 1)
	for k := 0; k < 3; k++ {
		if sigs[1*3+k] != emptySig {
			t.Fatalf("empty row signature[%d] = %d, want emptySig", k, sigs[3+k])
		}
		if sigs[0*3+k] != sigs[2*3+k] {
			t.Fatalf("identical rows disagree on hash %d", k)
		}
		if sigs[0*3+k] == emptySig {
			t.Fatalf("non-empty row carries emptySig at hash %d", k)
		}
	}
}
