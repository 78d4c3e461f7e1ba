// Quickstart: compress a small binary matrix into the CBM format,
// inspect its compression tree and delta matrix (the objects of the
// paper's Fig. 1), multiply it with a dense matrix, and verify the
// result against the CSR baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

func main() {
	// A small binary matrix whose rows resemble each other — the
	// situation Fig. 1 of the paper illustrates. Row 1 is row 0 plus
	// one column; row 2 is row 0 minus one column; and so on.
	adj := [][]int32{
		{0, 1, 2, 3},
		{0, 1, 2, 3, 4},
		{1, 2, 3},
		{0, 1, 2, 3, 4, 5},
		{2, 3},
		{0, 5},
		{0, 5, 6},
		{5, 6},
	}
	a := sparse.FromAdjacency(8, 8, adj)
	fmt.Printf("input: %d×%d binary matrix, nnz = %d\n", a.Rows, a.Cols, a.NNZ())

	m, stats, err := cbm.Compress(a, cbm.Options{Alpha: 0})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncompression tree (parent −1 = virtual root):\n")
	for x := 0; x < m.Rows(); x++ {
		dcols, dvals := m.Delta().Row(x)
		fmt.Printf("  row %d ← parent %2d   deltas:", x, m.Parent(x))
		for k, c := range dcols {
			sign := "+"
			if dvals[k] < 0 {
				sign = "-"
			}
			fmt.Printf(" %s%d", sign, c)
		}
		fmt.Println()
	}
	fmt.Printf("\ntotal deltas: %d (vs nnz %d — Property 1: deltas ≤ nnz)\n",
		m.NumDeltas(), a.NNZ())
	fmt.Printf("tree: %d real edges, %d virtual-root children, depth %d\n",
		stats.TreeEdges, stats.VirtualKids, stats.Depth)

	// Multiply with a dense matrix and compare against CSR SpMM.
	b := dense.FromRows([][]float32{
		{1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}, {1, 2}, {2, 1}, {1, 1},
	})
	got := m.Mul(b)
	want := kernels.SpMM(a, b)
	fmt.Printf("\nC = A·B  (max abs diff vs CSR: %g)\n", dense.MaxAbsDiff(got, want))
	for i := 0; i < got.Rows; i++ {
		fmt.Printf("  %v\n", got.Row(i))
	}

	// The same matrix as DAD — how GCNs consume adjacency matrices.
	d := make([]float32, a.Rows)
	for i := range d {
		d[i] = 1 / float32(i+1)
	}
	dad := m.WithSymmetricScale(d)
	_ = dad.Mul(b)
	fmt.Printf("\nDAD variant: kind=%v, footprint %d bytes (CSR: %d bytes)\n",
		dad.Kind(), dad.FootprintBytes(), a.FootprintBytes())

	_ = cbm.KindDAD // keep the direct package import illustrative
}
