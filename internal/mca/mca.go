// Package mca computes minimum-cost arborescences (directed minimum
// spanning trees). The CBM format needs one when edge pruning (α > 0)
// makes the distance graph directed (Sec. V-C of the paper). The
// implementation is the O(E log V) Gabow/Tarjan contraction algorithm
// with lazy skew heaps and a rollback union-find, ported to arena
// (index-based) storage so a multi-million-edge candidate graph does
// not fragment the heap.
//
// Two details keep the hot loop cheap without changing any result:
//
//   - A popped edge whose source already lies inside the current
//     (contracted) node is a self-loop. Its weight is still charged and
//     its lazy adjustment still applied, but it closes no cycle: the
//     walk simply pops the node's heap again. Recording it as a
//     one-node "contraction" would merge a heap with nothing, join
//     nothing, and on expansion write the node's chosen in-edge twice
//     ending on the same edge, so skipping the record is exact.
//   - Real contractions keep their cycle edges in one flat log (each
//     record is a span of it), and every buffer lives in a Solver that
//     can be reused, so solving many small graphs allocates nothing
//     after the first.
package mca

import (
	"errors"
	"fmt"
)

// Edge is a directed edge From→To with weight W.
type Edge struct {
	From, To int32
	W        int64
}

// ErrUnreachable is returned when some node has no path from the root.
var ErrUnreachable = errors.New("mca: graph has a node unreachable from the root")

// heapNode is one lazy skew-heap node. Node i holds input edge i.
type heapNode struct {
	key   int64 // adjusted weight
	delta int64 // pending addend for this subtree
	l, r  int32 // children, -1 = none
}

// skew is an arena of lazy skew-heap nodes, one per input edge.
type skew []heapNode

func (s skew) prop(a int32) {
	h := &s[a]
	d := h.delta
	if d == 0 {
		return
	}
	h.key += d
	if h.l >= 0 {
		s[h.l].delta += d
	}
	if h.r >= 0 {
		s[h.r].delta += d
	}
	h.delta = 0
}

// merge melds heaps a and b. It walks the right spines top-down: the
// smaller root (a on ties) takes the meld of the other heap and its old
// right child as its new left child, and its old left child moves
// right. That is the recursive skew-heap meld unrolled, with the same
// argument order at every level, so ties resolve identically.
func (s skew) merge(a, b int32) int32 {
	root := int32(-1)
	slot := &root
	for {
		if a < 0 {
			*slot = b
			return root
		}
		if b < 0 {
			*slot = a
			return root
		}
		s.prop(a)
		s.prop(b)
		if s[a].key > s[b].key {
			a, b = b, a
		}
		*slot = a
		h := &s[a]
		next := h.r
		h.r = h.l
		slot = &h.l
		a, b = b, next
	}
}

func (s skew) pop(a int32) int32 {
	s.prop(a)
	return s.merge(s[a].l, s[a].r)
}

// rollbackDSU is a union-find with union-by-size, no path compression,
// and an undo log, as the contraction algorithm's expansion phase needs
// to rewind contractions in reverse order.
type rollbackDSU struct {
	e   []int32 // e[x] < 0: x is a root of size -e[x]; otherwise parent
	log []struct {
		idx, val int32
	}
}

func (d *rollbackDSU) reset(n int) {
	d.e = grow(d.e, n)
	for i := range d.e {
		d.e[i] = -1
	}
	d.log = d.log[:0]
}

func (d *rollbackDSU) find(x int32) int32 {
	for d.e[x] >= 0 {
		x = d.e[x]
	}
	return x
}

func (d *rollbackDSU) time() int { return len(d.log) }

func (d *rollbackDSU) rollback(t int) {
	for len(d.log) > t {
		rec := d.log[len(d.log)-1]
		d.e[rec.idx] = rec.val
		d.log = d.log[:len(d.log)-1]
	}
}

func (d *rollbackDSU) join(a, b int32) bool {
	a, b = d.find(a), d.find(b)
	if a == b {
		return false
	}
	if d.e[a] > d.e[b] { // size(a) < size(b)
		a, b = b, a
	}
	d.log = append(d.log, struct{ idx, val int32 }{a, d.e[a]})
	d.log = append(d.log, struct{ idx, val int32 }{b, d.e[b]})
	d.e[a] += d.e[b]
	d.e[b] = a
	return true
}

// contraction records one contracted cycle: the representative after
// the contraction, the DSU log position before it, and the cycle's
// chosen edges as the span cycleEdges[lo:hi] of the Solver's log.
type contraction struct {
	node   int32
	time   int
	lo, hi int
}

// Solver holds the working buffers of the arborescence algorithm so
// repeated solves (e.g. one per connected component) reuse them. The
// zero value is ready to use. A Solver is not safe for concurrent use.
type Solver struct {
	heap       skew
	heaps      []int32 // heap root per (contracted) node
	seen       []int32 // walk stamp per node, -1 = unvisited
	path       []int32 // nodes along the current walk
	queued     []int32 // edge indices chosen along the current walk
	in         []int32 // chosen incoming edge per (contracted) node
	parent     []int32
	uf         rollbackDSU
	cycles     []contraction
	cycleEdges []int32
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Arborescence computes the minimum-cost arborescence of the directed
// multigraph (n nodes, given edges) rooted at root. It returns the
// parent of every node (parent[root] = -1) and the total weight.
// ErrUnreachable is returned when no arborescence exists. Self-loops
// and parallel edges are permitted.
func Arborescence(n int, root int32, edges []Edge) (parent []int32, total int64, err error) {
	var s Solver
	return s.Solve(n, root, edges)
}

// Solve is Arborescence on the Solver's reusable buffers. The returned
// parent slice belongs to the Solver and is overwritten by the next
// Solve.
func (s *Solver) Solve(n int, root int32, edges []Edge) (parent []int32, total int64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("mca: invalid node count %d", n)
	}
	if root < 0 || int(root) >= n {
		return nil, 0, fmt.Errorf("mca: root %d out of range [0,%d)", root, n)
	}
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, 0, fmt.Errorf("mca: edge (%d→%d) out of range", e.From, e.To)
		}
	}

	uf := &s.uf
	uf.reset(n)
	if cap(s.heap) < len(edges) {
		s.heap = make(skew, len(edges))
	}
	sk := s.heap[:len(edges)]
	heaps := grow(s.heaps, n)
	seen := grow(s.seen, n)
	path := grow(s.path, n)
	queued := grow(s.queued, n)
	in := grow(s.in, n)
	s.heaps, s.seen, s.path, s.queued, s.in = heaps, seen, path, queued, in
	for i := range heaps {
		heaps[i] = -1
		seen[i] = -1
		in[i] = -1
	}
	for i, e := range edges {
		sk[i] = heapNode{key: e.W, l: -1, r: -1}
		heaps[e.To] = sk.merge(heaps[e.To], int32(i))
	}
	seen[root] = root
	cycles := s.cycles[:0]
	cycleEdges := s.cycleEdges[:0]

	for start := int32(0); int(start) < n; start++ {
		u := start
		qi := 0
		for seen[u] < 0 {
			if heaps[u] < 0 {
				return nil, 0, ErrUnreachable
			}
			h := heaps[u]
			sk.prop(h)
			w := sk[h].key
			// Lazy Edmonds adjustment: every other in-edge of u now
			// costs (its weight − w), the price of replacing edge h.
			sk[h].delta -= w
			heaps[u] = sk.pop(h)
			total += w
			v := uf.find(edges[h].From)
			if v == u { // self-loop of the contracted node: pop again
				continue
			}

			queued[qi] = h
			path[qi] = u
			qi++
			seen[u] = start
			u = v
			if seen[u] == start { // walk closed a cycle: contract it
				var cyc int32 = -1
				end := qi
				t := uf.time()
				for {
					qi--
					w2 := path[qi]
					cyc = sk.merge(cyc, heaps[w2])
					if !uf.join(u, w2) {
						break
					}
				}
				u = uf.find(u)
				heaps[u] = cyc
				seen[u] = -1
				lo := len(cycleEdges)
				cycleEdges = append(cycleEdges, queued[qi:end]...)
				cycles = append(cycles, contraction{node: u, time: t, lo: lo, hi: len(cycleEdges)})
			}
		}
		for i := 0; i < qi; i++ {
			in[uf.find(edges[queued[i]].To)] = queued[i]
		}
	}
	s.cycles, s.cycleEdges = cycles, cycleEdges

	// Expansion: undo contractions newest-first, fixing the chosen
	// in-edge for every node of each cycle except the one the cycle's
	// external in-edge enters.
	for i := len(cycles) - 1; i >= 0; i-- {
		c := cycles[i]
		inEdge := in[c.node]
		uf.rollback(c.time)
		for _, eidx := range cycleEdges[c.lo:c.hi] {
			in[uf.find(edges[eidx].To)] = eidx
		}
		in[uf.find(edges[inEdge].To)] = inEdge
	}

	parent = grow(s.parent, n)
	s.parent = parent
	for i := range parent {
		if int32(i) == root {
			parent[i] = -1
			continue
		}
		parent[i] = edges[in[i]].From
	}
	return parent, total, nil
}
