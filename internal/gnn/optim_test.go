package gnn

import (
	"math"
	"testing"

	"repro/internal/dense"
)

// minimizeQuadratic drives a 1×n parameter toward target with Adam on
// the loss ½‖p − target‖² and returns the final distance.
func minimizeQuadratic(opt *Adam, steps int) float64 {
	target := []float32{3, -2, 0.5, 7}
	p := dense.New(1, len(target))
	grad := dense.New(1, len(target))
	for s := 0; s < steps; s++ {
		for i := range target {
			grad.Data[i] = p.Data[i] - target[i]
		}
		opt.BeginStep()
		opt.Step(p, grad)
	}
	var dist float64
	for i := range target {
		d := float64(p.Data[i] - target[i])
		dist += d * d
	}
	return math.Sqrt(dist)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	if d := minimizeQuadratic(NewAdam(0.3), 400); d > 1e-2 {
		t.Fatalf("Adam distance %v", d)
	}
}

func TestAdamStateIsPerParameter(t *testing.T) {
	opt := NewAdam(0.1)
	p1 := dense.New(1, 2)
	p2 := dense.New(1, 2)
	g := dense.New(1, 2)
	g.Data[0], g.Data[1] = 1, 1
	opt.BeginStep()
	opt.Step(p1, g)
	before := p2.Clone()
	opt.Step(p2, g)
	// p2's first step must look like a first step (same magnitude as
	// p1's first step), not be contaminated by p1's moments.
	if math.Abs(float64(p1.Data[0]-p2.Data[0])) > 1e-7 {
		t.Fatalf("Adam state leaked across parameters: %v vs %v", p1.Data[0], p2.Data[0])
	}
	if before.Equal(p2) {
		t.Fatal("no update applied")
	}
}
