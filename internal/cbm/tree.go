// Compression-tree construction: given the candidate graph, pick each
// row's parent by computing a minimum spanning tree (α = 0, undirected
// distance graph, Sec. III) or a minimum-cost arborescence (α > 0,
// where pruning makes edge availability directional, Sec. V-C), both
// rooted at the virtual node.

package cbm

import (
	"fmt"
	"sort"

	"repro/internal/mca"
	"repro/internal/mst"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// buildTreeMST computes the rooted MST of the candidate graph plus the
// virtual node using Prim's algorithm. Candidates are in-edges (y is a
// potential parent of x), so Prim's relaxation needs the out-adjacency:
// for each y, the rows x that list y as a candidate.
func buildTreeMST(a *sparse.CSR, cand [][]candidate) (parent []int32, total int64) {
	n := a.Rows
	g := &mst.Graph{N: n, Ptr: make([]int32, n+1), Root: make([]int64, n)}
	for x := 0; x < n; x++ {
		g.Root[x] = int64(a.RowNNZ(x))
	}
	// Counting sort of candidate edges by parent endpoint.
	for x := range cand {
		for _, c := range cand[x] {
			g.Ptr[c.Y+1]++
		}
	}
	for i := 0; i < n; i++ {
		g.Ptr[i+1] += g.Ptr[i]
	}
	g.Edges = make([]mst.Edge, g.Ptr[n])
	next := make([]int32, n)
	copy(next, g.Ptr[:n])
	for x := range cand {
		for _, c := range cand[x] {
			p := next[c.Y]
			g.Edges[p] = mst.Edge{Nbr: int32(x), W: int64(c.H)}
			next[c.Y] = p + 1
		}
	}
	return mst.Prim(g)
}

// buildTree picks every row's parent: Prim's MST at α = 0 unless
// forceMCA is set, the per-component arborescence otherwise. It also
// returns the number of independent subproblems it solved.
func buildTree(a *sparse.CSR, cand [][]candidate, alpha int, forceMCA bool, threads int) (parent []int32, total int64, components int, err error) {
	if alpha == 0 && !forceMCA {
		parent, total = buildTreeMST(a, cand)
		if a.Rows > 0 {
			components = 1
		}
		return parent, total, components, nil
	}
	return buildTreeMCA(a, cand, alpha, threads)
}

// buildTreeMCA computes the minimum-cost arborescence over the pruned,
// directed candidate graph: edge y→x survives iff
// savings(x,y) = nnz(x) − hamming(x,y) ≥ α. The virtual root keeps an
// edge to every row (weight nnz(x)) so an arborescence always exists.
//
// The arborescence is solved once per weakly connected component of
// the pruned graph (the virtual root excluded), components in parallel
// and largest first. The result is bit-identical to one solve over the
// whole graph with edges ordered by row (root edge first, then the
// candidate order): the global algorithm walks from every node in
// index order, a walk never leaves its component because the root is
// already settled, and heaps and union-find entries belong to single
// nodes, so each component replays exactly its own part of the global
// solve. To keep that replay exact, a component numbers its rows in
// ascending global order, puts its root last and keeps the global
// relative edge order. A single-row component hangs off the root
// without a solve. components reports how many components there are.
func buildTreeMCA(a *sparse.CSR, cand [][]candidate, alpha, threads int) (parent []int32, total int64, components int, err error) {
	n := a.Rows
	rowNNZ := a.Degrees()
	kept := func(x int, c candidate) bool { return int(c.savings(rowNNZ[x])) >= alpha }

	// Label components (union-find with path halving); number them in
	// order of their smallest row.
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	find := func(x int32) int32 {
		for label[x] != x {
			label[x] = label[label[x]]
			x = label[x]
		}
		return x
	}
	for x := range cand {
		for _, c := range cand[x] {
			if kept(x, c) {
				rx, ry := find(int32(x)), find(c.Y)
				if rx < ry {
					label[ry] = rx
				} else if ry < rx {
					label[rx] = ry
				}
			}
		}
	}
	// Links always point to a smaller row, so in ascending order a
	// row's link is already relabelled with the component id: roots
	// (each set's smallest row) meet fresh ids in ascending order.
	var sizes []int32
	for x := range label {
		if label[x] == int32(x) {
			label[x] = int32(len(sizes))
			sizes = append(sizes, 0)
		} else {
			label[x] = label[label[x]]
		}
		sizes[label[x]]++
	}
	components = len(sizes)

	// Rows grouped by component, ascending within each: the local id
	// of row rows[start[c]+i] is i.
	start := make([]int32, components+1)
	for c, sz := range sizes {
		start[c+1] = start[c] + sz
	}
	rows := make([]int32, n)
	next := append([]int32(nil), start[:components]...)
	for x := range label {
		c := label[x]
		rows[next[c]] = int32(x)
		next[c]++
	}
	parent = make([]int32, n)
	var order []int32 // components of two or more rows
	for c, sz := range sizes {
		if sz == 1 {
			x := rows[start[c]]
			parent[x] = -1
			total += int64(rowNNZ[x])
			continue
		}
		order = append(order, int32(c))
	}
	sort.SliceStable(order, func(i, j int) bool { return sizes[order[i]] > sizes[order[j]] })

	type treeScratch struct {
		solver mca.Solver
		edges  []mca.Edge
	}
	scratch := newScratchPool(parallel.EffectiveThreads(threads, len(order)), func() *treeScratch {
		return new(treeScratch)
	})
	// local maps a row to its id within its component. It reuses
	// label, which is not read again; each component writes and reads
	// only its own rows.
	local := label
	totals := make([]int64, len(order))
	errs := make([]error, len(order))
	parallel.ForDynamic(len(order), threads, 1, func(k int) {
		sc := scratch.get()
		defer scratch.put(sc)
		c := order[k]
		members := rows[start[c]:start[c+1]]
		for i, x := range members {
			local[x] = int32(i)
		}
		root := int32(len(members))
		edges := sc.edges[:0]
		for i, x := range members {
			edges = append(edges, mca.Edge{From: root, To: int32(i), W: int64(rowNNZ[x])})
			for _, cd := range cand[x] {
				if kept(int(x), cd) {
					edges = append(edges, mca.Edge{From: local[cd.Y], To: int32(i), W: int64(cd.H)})
				}
			}
		}
		sc.edges = edges
		par, t, err := sc.solver.Solve(len(members)+1, root, edges)
		if err != nil {
			errs[k] = err
			return
		}
		for i, p := range par[:len(members)] {
			if p == root {
				parent[members[i]] = -1
			} else {
				parent[members[i]] = members[p]
			}
		}
		totals[k] = t
	})
	for k := range order {
		if errs[k] != nil {
			return nil, 0, 0, fmt.Errorf("cbm: arborescence construction failed: %w", errs[k])
		}
		total += totals[k]
	}
	return parent, total, components, nil
}

// branchDecompose splits the compression tree into the sub-trees that
// hang off the virtual root and flattens each to pre-order, the
// dependency-respecting traversal the update stage needs. Children of
// the virtual root carry no update dependency (the virtual row is
// zero), so the branches are mutually independent — they are the unit
// of parallelism of Sec. V-B. The branches are concatenated
// largest-first (ties in root order), so dynamic scheduling balances
// well, into one array: branch bi is order[off[bi]:off[bi+1]]. Rows on
// a parent cycle are reachable from no root and appear nowhere, which
// Decode uses to reject corrupt trees.
func branchDecompose(parent []int32) (order, off []int32) {
	n := len(parent)
	// children lists in CSR-ish layout
	childCnt := make([]int32, n+1)
	roots := make([]int32, 0)
	for x, p := range parent {
		if p < 0 {
			roots = append(roots, int32(x))
		} else {
			childCnt[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		childCnt[i+1] += childCnt[i]
	}
	childBuf := make([]int32, childCnt[n])
	next := make([]int32, n)
	copy(next, childCnt[:n])
	for x, p := range parent {
		if p >= 0 {
			childBuf[next[p]] = int32(x)
			next[p]++
		}
	}
	children := func(u int32) []int32 { return childBuf[childCnt[u]:childCnt[u+1]] }

	// Pre-order every branch in root order, then copy the branches out
	// largest-first.
	walk := make([]int32, 0, n)
	start := make([]int32, len(roots)+1)
	stack := make([]int32, 0, 64)
	for i, r := range roots {
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			walk = append(walk, u)
			stack = append(stack, children(u)...)
		}
		start[i+1] = int32(len(walk))
	}
	size := func(i int) int32 { return start[i+1] - start[i] }
	byLen := make([]int, len(roots))
	for i := range byLen {
		byLen[i] = i
	}
	sort.SliceStable(byLen, func(i, j int) bool { return size(byLen[i]) > size(byLen[j]) })
	order = make([]int32, 0, len(walk))
	off = make([]int32, 1, len(roots)+1)
	for _, i := range byLen {
		order = append(order, walk[start[i]:start[i+1]]...)
		off = append(off, int32(len(order)))
	}
	return order, off
}

// treeDepth returns the longest root-to-leaf edge count in the
// compression tree (virtual-root edges count, so a child of the
// virtual root has depth 1) — a diagnostic for the critical path of
// the update stage.
//
// The walk is iterative: a path-shaped tree (an α = 0 chain graph) has
// depth n, and a recursive memoized walk would need one stack frame
// per level — a goroutine stack overflow at graph scale. Instead each
// node climbs its parent chain twice: once up to the nearest node with
// a known depth, then back down the same chain filling depths in, so
// every edge is traversed O(1) times and no recursion happens.
func treeDepth(parent []int32) int {
	n := len(parent)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	max := int32(0)
	for x := 0; x < n; x++ {
		// Climb to the nearest memoized ancestor (or the virtual root),
		// counting the edges on the way.
		steps := int32(0)
		y := int32(x)
		for y >= 0 && depth[y] < 0 {
			y = parent[y]
			steps++
		}
		base := int32(0)
		if y >= 0 {
			base = depth[y]
		}
		d := base + steps
		if d > max {
			max = d
		}
		// Second climb over the same chain records the depths top-down,
		// so later starts terminate at the first memoized node.
		for y = int32(x); y >= 0 && depth[y] < 0; y = parent[y] {
			depth[y] = d
			d--
		}
	}
	return int(max)
}
