package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// setUp builds a workload's instance from a seed the way run does.
func setUp(t *testing.T, name string, seed uint64) (*instance, *sparse.CSR) {
	t.Helper()
	s, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{spec: s, seed: seed}
	if err := r.generate(); err != nil {
		t.Fatal(err)
	}
	var model *gnn.GCN2
	if s.engine {
		model = gnn.NewGCN2(s.f, s.h, s.c, seed+7)
	}
	in, _, err := setup(s, r.graph, model, r.xs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	return in, r.graph
}

func TestSameSeedReproducesExactCounts(t *testing.T) {
	names := []string{"serve-pubmed-batched"}
	if !testing.Short() {
		names = append(names, "prop-collab")
	}
	for _, name := range names {
		a, _ := setUp(t, name, 5)
		b, _ := setUp(t, name, 5)
		if ca, cb := a.counts(), b.counts(); !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: seed 5 gave %v, then %v", name, ca, cb)
		}
	}
}

func TestDifferentSeedChangesGraph(t *testing.T) {
	a, ga := setUp(t, "serve-pubmed-batched", 5)
	b, gb := setUp(t, "serve-pubmed-batched", 6)
	if reflect.DeepEqual(ga.ColIdx, gb.ColIdx) {
		t.Fatal("seeds 5 and 6 generated the same graph")
	}
	if reflect.DeepEqual(a.counts(), b.counts()) {
		t.Errorf("seeds 5 and 6 gave the same exact counts %v", a.counts())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the helper must sort
		}
		return s
	}
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	got, err := percentile(samples(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, nil", got, err)
	}
	if got := median(samples(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// spanAt builds a span of d ms starting at start ms.
func spanAt(op, id, parent int, name string, start, d float64) span {
	return span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(start * 1e6), End: int64((start + d) * 1e6)}
}

func TestLedgerResidual(t *testing.T) {
	spans := []span{
		// Three workload ops: mean 100 ms.
		spanAt(0, 0, -1, spanOp, 0, 90),
		spanAt(1, 1, -1, spanOp, 100, 100),
		spanAt(2, 2, -1, spanOp, 200, 110),
		// One replay of 92 ms: gemm 40+20, aggregate 15+10, relu 2,
		// so 5 ms of its root is its own.
		spanAt(3, 3, -1, spanReplay, 400, 92),
		spanAt(3, 4, 3, spanGemm, 400, 40),
		spanAt(3, 5, 3, spanAggregate, 440, 15),
		spanAt(3, 6, 3, spanReLU, 455, 2),
		spanAt(3, 7, 3, spanGemm, 457, 20),
		spanAt(3, 8, 3, spanAggregate, 477, 10),
	}
	for _, c := range []struct {
		name      string
		forwardMs float64
		want      ledger
	}{
		// The engine saw a 90 ms forward: 10 ms of the op is engine
		// overhead and 3 ms of the forward no layer call explains.
		{"engine", 90, ledger{OpMs: 100, ForwardMs: 90, GemmMs: 60, AggregateMs: 25, ReLUMs: 2, OverheadMs: 10, ResidualShare: 0.03}},
		// Without an engine the op is the forward; its unexplained part
		// is all residual.
		{"no engine", 0, ledger{OpMs: 100, ForwardMs: 100, GemmMs: 60, AggregateMs: 25, ReLUMs: 2, OverheadMs: 0, ResidualShare: 0.13}},
	} {
		l := buildLedger(spans, c.forwardMs)
		got := []float64{l.OpMs, l.ForwardMs, l.GemmMs, l.AggregateMs, l.ReLUMs, l.OverheadMs, l.ResidualShare}
		want := []float64{c.want.OpMs, c.want.ForwardMs, c.want.GemmMs, c.want.AggregateMs, c.want.ReLUMs, c.want.OverheadMs, c.want.ResidualShare}
		for i, name := range []string{"op", "forward", "gemm", "aggregate", "relu", "overhead", "residual"} {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", c.name, name, got[i], want[i])
			}
		}
	}
	self := selfTimes(spans)
	if got := self[spanReplay]; len(got) != 1 || math.Abs(got[0]-5) > 1e-9 {
		t.Errorf("replay self time = %v, want [5]", got)
	}
	if got := self[spanGemm]; len(got) != 2 || got[0] != 40 || got[1] != 20 {
		t.Errorf("gemm self times = %v, want [40 20]", got)
	}
}

func TestCheckCoresRefusesOversubscription(t *testing.T) {
	for _, s := range specs {
		if err := s.checkCores(1); (err == nil) != (s.threads == 1 && s.clients == 1) {
			t.Errorf("%s on 1 core: err = %v", s.name, err)
		}
		if err := s.checkCores(2); err != nil {
			t.Errorf("%s on 2 cores: %v", s.name, err)
		}
	}
}

// TestReplayMatchesEngine checks that the traced replay of an op, made
// of public per-layer calls, is bitwise equal to the engine's output.
func TestReplayMatchesEngine(t *testing.T) {
	in, g := setUp(t, "serve-pubmed-batched", 3)
	x := dense.New(g.Rows, in.spec.f)
	xrand.New(9).FillUniform(x.Data)
	want := dense.New(g.Rows, in.spec.c)
	in.op(want, x)
	got := dense.New(g.Rows, in.spec.c)
	replay(newTracer(), exec.New(in.spec.threads), in, got, x)
	if !bitwiseEqual(got, want) {
		t.Fatal("replayed output differs from the engine's")
	}
	got.Data[len(got.Data)-1] = math.Nextafter32(got.Data[len(got.Data)-1], 1e9)
	if bitwiseEqual(got, want) {
		t.Fatal("bitwiseEqual missed a one-ulp change")
	}
}
