// Package costmodel is the machine-independent work/span model of the
// CBM multiplication pipeline: scalar operation counts for CSR and CBM
// and the modeled parallel speedups behind Fig. 2 and the scaling
// experiment. The package knows nothing about the cbm package —
// matrices describe themselves through MatrixShape — so cbm can hand
// out its shape without an import cycle.
package costmodel

import (
	"container/heap"

	"repro/internal/sparse"
)

// MatrixShape is the structural summary of a CBM matrix the work/span
// model consumes (cbm.Matrix.Shape).
type MatrixShape struct {
	// Rows is the matrix dimension n (CBM matrices are square).
	Rows int
	// DeltaNNZ is nnz(A'), the stored deltas.
	DeltaNNZ int64
	// RealEdges counts compression-tree edges with a real parent.
	RealEdges int
	// VirtualKids counts rows hanging off the virtual root.
	VirtualKids int
	// DAD reports whether the matrix carries the Eq. 6 row scaling.
	DAD bool
	// BranchSizes holds the node count of every virtual-root subtree.
	BranchSizes []int
}

// Ops counts scalar operations (flops) for one kernel invocation.
type Ops struct {
	Multiply int64 // sparse-dense multiplication stage
	Update   int64 // tree-update stage (CBM only)
}

// Total returns all scalar operations.
func (o Ops) Total() int64 { return o.Multiply + o.Update }

// CSROps returns the scalar operations of a CSR SpMM with `cols`
// right-hand-side columns: one multiply + one add per stored non-zero
// per column.
func CSROps(a *sparse.CSR, cols int) Ops {
	return Ops{Multiply: 2 * int64(a.NNZ()) * int64(cols)}
}

// CBMOps returns the scalar operations of the CBM kernel: SpMM over
// the delta matrix plus one row-axpy (2·cols ops) per compression-tree
// edge with a real parent; DAD matrices add one multiply per updated
// element and a row scaling for virtual-root children (Eq. 6).
func CBMOps(sh MatrixShape, cols int) Ops {
	ops := Ops{Multiply: 2 * sh.DeltaNNZ * int64(cols)}
	perEdge := int64(2 * cols)
	if sh.DAD {
		perEdge = int64(3 * cols) // fused add + scale
		ops.Update += int64(sh.VirtualKids) * int64(cols)
	}
	ops.Update += int64(sh.RealEdges) * perEdge
	return ops
}

// workerHeap is a min-heap over accumulated worker loads.
type workerHeap []int64

func (h workerHeap) Len() int            { return len(h) }
func (h workerHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h workerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *workerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Makespan schedules independent task costs onto p workers with the
// LPT (longest processing time first) greedy rule and returns the
// resulting makespan. Tasks must be sorted descending for the classic
// 4/3-approximation bound; this function sorts a copy itself.
func Makespan(tasks []int64, p int) int64 {
	if len(tasks) == 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	sorted := make([]int64, len(tasks))
	copy(sorted, tasks)
	// descending insertion-free sort
	sortDescending(sorted)
	h := make(workerHeap, p)
	heap.Init(&h)
	for _, t := range sorted {
		least := heap.Pop(&h).(int64)
		heap.Push(&h, least+t)
	}
	var max int64
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	return max
}

func sortDescending(a []int64) {
	// small helper around sort to keep the import local
	quicksortDesc(a, 0, len(a)-1)
}

func quicksortDesc(a []int64, lo, hi int) {
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// recurse into the smaller side to bound stack depth
		if j-lo < hi-i {
			quicksortDesc(a, lo, j)
			lo = i
		} else {
			quicksortDesc(a, i, hi)
			hi = j
		}
	}
}

// ModeledParallelTime returns the modeled execution "time" (scalar
// operations on the critical path) of the CBM kernel on p workers: the
// multiplication stage parallelizes over rows (work/p), the update
// stage is the LPT makespan of its branch costs.
func ModeledParallelTime(sh MatrixShape, cols, p int) int64 {
	if p < 1 {
		p = 1
	}
	ops := CBMOps(sh, cols)
	mul := (ops.Multiply + int64(p) - 1) / int64(p)
	return mul + Makespan(BranchCosts(sh, cols), p)
}

// ModeledCSRParallelTime returns the modeled CSR SpMM time on p
// workers (row-parallel, perfectly balanced in the model).
func ModeledCSRParallelTime(a *sparse.CSR, cols, p int) int64 {
	if p < 1 {
		p = 1
	}
	return (CSROps(a, cols).Multiply + int64(p) - 1) / int64(p)
}

// ModeledSpeedup returns the modeled CSR/CBM speedup on p workers.
func ModeledSpeedup(a *sparse.CSR, sh MatrixShape, cols, p int) float64 {
	ct := ModeledParallelTime(sh, cols, p)
	if ct == 0 {
		return 1
	}
	return float64(ModeledCSRParallelTime(a, cols, p)) / float64(ct)
}

// BranchCosts returns the update-stage cost of each virtual-root
// branch: one row update per edge with a real parent (branch length −
// 1 edges), scaled by the per-edge operation count of the matrix kind.
func BranchCosts(sh MatrixShape, cols int) []int64 {
	perEdge := int64(2 * cols)
	perRoot := int64(0)
	if sh.DAD {
		perEdge = int64(3 * cols)
		perRoot = int64(cols)
	}
	costs := make([]int64, 0, len(sh.BranchSizes))
	for _, size := range sh.BranchSizes {
		costs = append(costs, int64(size-1)*perEdge+perRoot)
	}
	return costs
}
