package gnn_test

import (
	"fmt"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/synth"
)

// ExampleGCN2_Infer runs the paper's two-layer GCN on both adjacency
// backends and shows they agree.
func ExampleGCN2_Infer() {
	a := synth.SBMGroups(100, 10, 0.8, 0.5, 1)
	csrBackend, err := gnn.NewCSRBackend(a)
	if err != nil {
		panic(err)
	}
	cbmBackend, _, err := gnn.NewCBMBackend(a, cbm.Options{Alpha: 2})
	if err != nil {
		panic(err)
	}
	x := dense.New(100, 8)
	for i := range x.Data {
		x.Data[i] = float32(i%7) / 7
	}
	model := gnn.NewGCN2(8, 8, 3, 42)
	z1 := model.Infer(csrBackend, x, 1)
	z2 := model.Infer(cbmBackend, x, 1)
	fmt.Printf("shape %d×%d, agree within 1e-5: %v\n",
		z1.Rows, z1.Cols, dense.MaxRelDiff(z1, z2, 1) < 1e-5)
	// Output:
	// shape 100×3, agree within 1e-5: true
}
