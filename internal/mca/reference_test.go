package mca

import "fmt"

// refSkew is an arena of lazy skew-heap nodes, one per input edge.
type refSkew struct {
	key   []int64 // adjusted weight
	edge  []int32 // index of the original edge
	l, r  []int32 // children, -1 = none
	delta []int64 // pending addend for this subtree
}

func newRefSkew(edges []Edge) *refSkew {
	n := len(edges)
	s := &refSkew{
		key:   make([]int64, n),
		edge:  make([]int32, n),
		l:     make([]int32, n),
		r:     make([]int32, n),
		delta: make([]int64, n),
	}
	for i, e := range edges {
		s.key[i] = e.W
		s.edge[i] = int32(i)
		s.l[i] = -1
		s.r[i] = -1
	}
	return s
}

func (s *refSkew) prop(a int32) {
	d := s.delta[a]
	if d == 0 {
		return
	}
	s.key[a] += d
	if l := s.l[a]; l >= 0 {
		s.delta[l] += d
	}
	if r := s.r[a]; r >= 0 {
		s.delta[r] += d
	}
	s.delta[a] = 0
}

func (s *refSkew) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	s.prop(a)
	s.prop(b)
	if s.key[a] > s.key[b] {
		a, b = b, a
	}
	s.r[a] = s.merge(b, s.r[a])
	s.l[a], s.r[a] = s.r[a], s.l[a]
	return a
}

func (s *refSkew) pop(a int32) int32 {
	s.prop(a)
	return s.merge(s.l[a], s.r[a])
}

// refDSU is a union-find with union-by-size, no path compression,
// and an undo log, as the contraction algorithm's expansion phase needs
// to rewind contractions in reverse order.
type refDSU struct {
	e   []int32 // e[x] < 0: x is a root of size -e[x]; otherwise parent
	log []struct {
		idx, val int32
	}
}

func newRefDSU(n int) *refDSU {
	e := make([]int32, n)
	for i := range e {
		e[i] = -1
	}
	return &refDSU{e: e}
}

func (d *refDSU) find(x int32) int32 {
	for d.e[x] >= 0 {
		x = d.e[x]
	}
	return x
}

func (d *refDSU) time() int { return len(d.log) }

func (d *refDSU) rollback(t int) {
	for len(d.log) > t {
		rec := d.log[len(d.log)-1]
		d.e[rec.idx] = rec.val
		d.log = d.log[:len(d.log)-1]
	}
}

func (d *refDSU) join(a, b int32) bool {
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

type refContraction struct {
	node int32 // representative after the contraction
	time int   // DSU log position before the contraction
	comp []int32
}

// referenceArborescence is the original global solver, kept verbatim
// as the equality reference for Solver: separate key/edge/child/delta
// arrays per heap node, a recursive meld, a fresh comp slice per
// contraction, and every self-loop pop recorded as a one-node
// contraction. Solver must return the same parent array and total on
// every input, ties included.
func referenceArborescence(n int, root int32, edges []Edge) (parent []int32, total int64, err error) {
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

	uf := newRefDSU(n)
	sk := newRefSkew(edges)
	heaps := make([]int32, n)
	for i := range heaps {
		heaps[i] = -1
	}
	for i, e := range edges {
		heaps[e.To] = sk.merge(heaps[e.To], int32(i))
	}

	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	seen[root] = root
	path := make([]int32, n)
	queued := make([]int32, n) // edge indices chosen along the current walk
	in := make([]int32, n)     // chosen incoming edge per (contracted) node
	for i := range in {
		in[i] = -1
	}
	var cycles []refContraction

	for s := int32(0); int(s) < n; s++ {
		u := s
		qi := 0
		for seen[u] < 0 {
			if heaps[u] < 0 {
				return nil, 0, ErrUnreachable
			}
			h := heaps[u]
			sk.prop(h)
			eidx := sk.edge[h]
			w := sk.key[h]
			// Lazy Edmonds adjustment: every other in-edge of u now
			// costs (its weight − w), the price of replacing e.
			sk.delta[h] -= w
			heaps[u] = sk.pop(h)

			queued[qi] = eidx
			path[qi] = u
			qi++
			seen[u] = s
			total += w
			u = uf.find(edges[eidx].From)
			if seen[u] == s { // walk closed a cycle: contract it
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
				comp := make([]int32, end-qi)
				copy(comp, queued[qi:end])
				cycles = append(cycles, refContraction{node: u, time: t, comp: comp})
			}
		}
		for i := 0; i < qi; i++ {
			in[uf.find(edges[queued[i]].To)] = queued[i]
		}
	}

	// Expansion: undo contractions newest-first, fixing the chosen
	// in-edge for every node of each cycle except the one the cycle's
	// external in-edge enters.
	for i := len(cycles) - 1; i >= 0; i-- {
		c := cycles[i]
		inEdge := in[c.node]
		uf.rollback(c.time)
		for _, eidx := range c.comp {
			in[uf.find(edges[eidx].To)] = eidx
		}
		in[uf.find(edges[inEdge].To)] = inEdge
	}

	parent = make([]int32, n)
	for i := range parent {
		if int32(i) == root {
			parent[i] = -1
			continue
		}
		parent[i] = edges[in[i]].From
	}
	return parent, total, nil
}
