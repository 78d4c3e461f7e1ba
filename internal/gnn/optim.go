package gnn

import (
	"math"

	"repro/internal/dense"
)

// Adam is the Kingma–Ba optimizer — the one GCNs are conventionally
// trained with (the original GCN paper uses Adam at lr 0.01).
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	m, v                  map[*dense.Matrix][]float32
}

// NewAdam returns an Adam optimizer with the usual defaults for any
// zero-valued hyperparameter (β₁ 0.9, β₂ 0.999, ε 1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*dense.Matrix][]float32{},
		v: map[*dense.Matrix][]float32{},
	}
}

// BeginStep advances Adam's shared time step; call once per epoch
// before the per-parameter Step calls.
func (o *Adam) BeginStep() { o.t++ }

// Step applies one Adam update to param.
func (o *Adam) Step(param, grad *dense.Matrix) {
	if o.t == 0 {
		o.t = 1 // tolerate a missing BeginStep
	}
	m, ok := o.m[param]
	if !ok {
		m = make([]float32, len(param.Data))
		o.m[param] = m
	}
	v := o.v[param]
	if v == nil {
		v = make([]float32, len(param.Data))
		o.v[param] = v
	}
	b1c := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	b2c := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for i := range param.Data {
		g := grad.Data[i]
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
		mhat := m[i] / b1c
		vhat := v[i] / b2c
		param.Data[i] -= o.LR * mhat / (float32(math.Sqrt(float64(vhat))) + o.Eps)
	}
}
