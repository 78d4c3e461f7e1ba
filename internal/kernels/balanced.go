package kernels

import (
	"fmt"
	"sync"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// SpMMBalanced computes C = S·B with nnz-balanced scheduling: instead
// of dealing rows to workers (which serializes on hub rows in
// power-law graphs such as the protein analog), the non-zeros are
// split into equal contiguous segments, one per worker, and rows that
// straddle a segment boundary are combined with a small merge pass.
//
// It is an alternative to the row-dynamic kernel in SpMMTo, exposed
// for the scheduling ablation (BenchmarkSpMMScheduling); results are
// bitwise identical to SpMM for matrices without boundary rows and
// agree within float addition reassociation otherwise.
func SpMMBalanced(c *dense.Matrix, s *sparse.CSR, b *dense.Matrix, threads int) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: SpMMBalanced shape mismatch %dx%d · %dx%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: SpMMBalanced output shape mismatch: c is %dx%d, want %dx%d", c.Rows, c.Cols, s.Rows, b.Cols))
	}
	threads = threadsOrDefault(threads)
	nnz := s.NNZ()
	if threads <= 1 || nnz == 0 || s.Rows == 0 {
		SpMMTo(c, s, b, 1)
		return
	}
	if threads > nnz {
		threads = nnz
	}

	// Segment k covers non-zeros [k*seg, (k+1)*seg). A worker owns the
	// rows fully inside its segment and produces partial sums for the
	// (at most two) boundary rows, reduced afterwards.
	seg := (nnz + threads - 1) / threads
	type boundary struct {
		row     int
		partial []float32
	}
	partials := make([][]boundary, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo := t * seg
		hi := lo + seg
		if hi > nnz {
			hi = nnz
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			// First row whose range intersects [lo, hi).
			row := rowOf(s, lo)
			for row < s.Rows && int(s.RowPtr[row]) < hi {
				rLo := int(s.RowPtr[row])
				rHi := int(s.RowPtr[row+1])
				kLo := maxInt(rLo, lo)
				kHi := minInt(rHi, hi)
				full := kLo == rLo && kHi == rHi
				var dst []float32
				if full {
					dst = c.Row(row)
					blas.Fill(dst, 0)
				} else {
					dst = make([]float32, c.Cols)
				}
				for k := kLo; k < kHi; k++ {
					col := int(s.ColIdx[k])
					v := s.Vals[k]
					if v == 1 {
						blas.Add(b.Row(col), dst)
					} else {
						blas.Axpy(v, b.Row(col), dst)
					}
				}
				if !full {
					partials[t] = append(partials[t], boundary{row: row, partial: dst})
				}
				row++
			}
		}(t, lo, hi)
	}
	wg.Wait()

	// Reduce boundary rows (zero them first, then add every partial).
	zeroed := map[int]bool{}
	for _, list := range partials {
		for _, p := range list {
			if !zeroed[p.row] {
				blas.Fill(c.Row(p.row), 0)
				zeroed[p.row] = true
			}
		}
	}
	for _, list := range partials {
		for _, p := range list {
			blas.Add(p.partial, c.Row(p.row))
		}
	}
	// Rows with no stored entries at all were never touched above.
	for i := 0; i < s.Rows; i++ {
		if s.RowPtr[i] == s.RowPtr[i+1] {
			blas.Fill(c.Row(i), 0)
		}
	}
}

// rowOf returns the row containing non-zero position k (binary search
// over the row pointers).
func rowOf(s *sparse.CSR, k int) int {
	lo, hi := 0, s.Rows-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.RowPtr[mid+1]) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func threadsOrDefault(t int) int {
	if t < 1 {
		return parallel.DefaultThreads()
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
