// Candidate (distance) graph construction for the CBM format.
//
// The compression tree needs, for each row x, the set of rows y whose
// Hamming distance to x is small. Only pairs of rows that share at
// least one non-zero column can beat the virtual-root edge (weight
// nnz(x)), so candidates are enumerated with the paper's AAᵀ approach:
// for every column j of row x, every other row y that also contains j
// gets its shared-neighbour counter bumped. From the intersection size
// the Hamming distance follows as nnz(x) + nnz(y) − 2·|x∩y|.
//
// A candidate y for row x is stored only when it could ever be chosen
// as x's parent: savings(x,y) = nnz(x) − hamming(x,y) = 2·|x∩y| − nnz(y)
// must be ≥ 0, because any edge with negative savings in both
// directions is dominated by the virtual edges and provably never
// appears in a rooted MST/MCA, and an edge usable only in the opposite
// direction is stored on the other endpoint's list.

package cbm

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// candBlock is the number of consecutive rows one scheduling unit of
// the candidate pass covers.
const candBlock = 64

// candScratch is one running block's working memory.
type candScratch struct {
	count   []int32 // shared-column count per row, all zero between rows
	touched []int32 // rows with a non-zero count
}

// candidate is a potential parent row for some target row.
type candidate struct {
	Y int32 // parent row index
	H int32 // hamming distance (= number of deltas if chosen)
}

// buildCandidates enumerates, for every row x of the binary matrix a,
// the parent candidates with non-negative savings. maxCand > 0 caps the
// per-row list at the maxCand nearest candidates (smallest Hamming
// distance) — the memory-scaling knob discussed in DESIGN.md; 0 keeps
// everything. A non-nil cluster assignment restricts candidates to
// same-cluster rows (see CompressClustered).
//
// The second result counts every ordered row pair with a non-empty
// intersection — the nnz of AAᵀ minus the diagonal. It is the memory
// the paper's explicit-AAᵀ construction would materialize (the
// Sec. VIII "92 GiB for Reddit" number) and feeds the memory-wall
// experiment.
func buildCandidates(a *sparse.CSR, threads, maxCand int, cluster []int32) ([][]candidate, int64) {
	n := a.Rows
	cand := make([][]candidate, n)
	if n == 0 {
		return cand, 0
	}
	at := a.Transpose()
	rowNNZ := a.Degrees()
	var intersecting atomic.Int64

	// Rows are scheduled in small blocks from a shared counter: the
	// generators emit rows group by group, so a static split hands the
	// threads very different amounts of intersection work. Each running
	// block takes its counters from the scratch pool; they are zero
	// again when the block returns them.
	nblocks := (n + candBlock - 1) / candBlock
	scratch := newScratchPool(parallel.EffectiveThreads(threads, nblocks), func() *candScratch {
		return &candScratch{count: make([]int32, n), touched: make([]int32, 0, 1024)}
	})
	parallel.ForDynamic(nblocks, threads, 1, func(b int) {
		sc := scratch.get()
		defer scratch.put(sc)
		// Shared-neighbour counters plus the list of rows touched so
		// counters reset in O(touched).
		count, touched := sc.count, sc.touched
		pairs := 0
		for x := b * candBlock; x < n && x < (b+1)*candBlock; x++ {
			touched = touched[:0]
			for _, j := range a.RowCols(x) {
				for _, y := range at.RowCols(int(j)) {
					if int(y) == x {
						continue
					}
					if count[y] == 0 {
						touched = append(touched, y)
					}
					count[y]++
				}
			}
			if len(touched) == 0 {
				continue
			}
			pairs += len(touched)
			list := make([]candidate, 0, len(touched))
			nx := rowNNZ[x]
			for _, y := range touched {
				inter := count[y]
				count[y] = 0
				if cluster != nil && cluster[y] != cluster[x] {
					continue
				}
				// savings = 2*inter - nnz(y); keep non-losing parents.
				if 2*inter < rowNNZ[y] {
					continue
				}
				h := nx + rowNNZ[y] - 2*inter
				list = append(list, candidate{Y: y, H: h})
			}
			if maxCand > 0 && len(list) > maxCand {
				sort.Slice(list, func(i, j int) bool {
					if list[i].H != list[j].H {
						return list[i].H < list[j].H
					}
					return list[i].Y < list[j].Y
				})
				list = list[:maxCand:maxCand]
			}
			cand[x] = list
		}
		sc.touched = touched
		intersecting.Add(int64(pairs))
	})
	return cand, intersecting.Load()
}

// candidateEdgeCount totals the stored candidate edges.
func candidateEdgeCount(cand [][]candidate) int {
	n := 0
	for _, l := range cand {
		n += len(l)
	}
	return n
}

// savings returns nnz(x) − h for a candidate of row x, given nnz(x).
func (c candidate) savings(nnzX int32) int32 { return nnzX - c.H }

// scratchPool hands each running body of a parallel loop its own
// scratch value. At most as many bodies run at once as the loop has
// threads, so at most that many values are ever made; later bodies
// reuse them.
type scratchPool[T any] struct {
	free  chan *T
	fresh func() *T
}

func newScratchPool[T any](threads int, fresh func() *T) *scratchPool[T] {
	return &scratchPool[T]{free: make(chan *T, threads), fresh: fresh}
}

func (p *scratchPool[T]) get() *T {
	select {
	case s := <-p.free:
		return s
	default:
		return p.fresh()
	}
}

func (p *scratchPool[T]) put(s *T) {
	select {
	case p.free <- s:
	default:
	}
}

// checkShape validates that a is a square binary matrix small enough
// for the int32-indexed internals.
func checkShape(a *sparse.CSR) error {
	if a.Rows != a.Cols {
		return errNotSquare(a.Rows, a.Cols)
	}
	if a.Rows > math.MaxInt32-1 {
		return errTooLarge(a.Rows)
	}
	if !a.IsBinary() {
		return errNotBinary
	}
	return nil
}
