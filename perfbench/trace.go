package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dense"
	"repro/internal/exec"
)

// Span names. A workload op is one "op" span with no children; a
// replayed op is a "replay" root whose children are the layer calls.
const (
	spanOp        = "op"
	spanReplay    = "replay"
	spanGemm      = "dense.gemm"
	spanAggregate = "gnn.aggregate"
	spanReLU      = "dense.relu"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the ID of the enclosing span, -1 for a root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. Span IDs are
// indices into spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

func (t *tracer) begin(op int, name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span named name under parent.
func (t *tracer) timed(op int, name string, parent int, f func()) {
	id := t.begin(op, name, parent)
	f()
	t.end(id)
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the time its children cover. Children of one span run
// one after another, so their durations add without overlap.
func selfTimes(spans []span) map[string][]float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms()-child[i])
	}
	return out
}

// ledger splits one op's latency into its layers. Every figure is a
// mean, because the engine's own timers only give totals: Op over the
// workload op spans, the layer times over the replayed ops, and
// Forward over the model forward passes the engine's StageInfer timer
// saw during the same ops. The engine overhead (op − forward) and the
// layer times thus come from different measurements, and the residual
// shows any gap between them.
type ledger struct {
	OpMs, ForwardMs, GemmMs, AggregateMs, ReLUMs, OverheadMs float64
	// ResidualShare is (op − gemm − aggregate − relu − overhead) / op,
	// that is (forward − gemm − aggregate − relu) / op: the part of the
	// engine's forward pass the replayed layer calls do not explain.
	ResidualShare float64
}

// buildLedger derives the ledger from the spans and the engine's mean
// forward pass in ms. Without an engine (forwardMs ≤ 0) the op is the
// forward itself: the overhead is 0 and the residual is the part of
// the op span the replayed layer calls do not explain.
func buildLedger(spans []span, forwardMs float64) ledger {
	var l ledger
	ops, replays := 0, map[int]bool{}
	for _, s := range spans {
		switch {
		case s.Parent < 0 && s.Name == spanOp:
			l.OpMs += s.ms()
			ops++
		case s.Parent < 0 && s.Name == spanReplay:
			replays[s.Op] = true
		}
	}
	for _, s := range spans {
		if s.Parent < 0 || !replays[s.Op] {
			continue
		}
		switch s.Name {
		case spanGemm:
			l.GemmMs += s.ms()
		case spanAggregate:
			l.AggregateMs += s.ms()
		case spanReLU:
			l.ReLUMs += s.ms()
		}
	}
	if ops == 0 || len(replays) == 0 {
		return ledger{}
	}
	l.OpMs /= float64(ops)
	n := float64(len(replays))
	l.GemmMs, l.AggregateMs, l.ReLUMs = l.GemmMs/n, l.AggregateMs/n, l.ReLUMs/n
	l.ForwardMs = l.OpMs
	if forwardMs > 0 {
		l.ForwardMs = forwardMs
	}
	l.OverheadMs = l.OpMs - l.ForwardMs
	l.ResidualShare = (l.OpMs - l.GemmMs - l.AggregateMs - l.ReLUMs - l.OverheadMs) / l.OpMs
	return l
}

// replay runs one op again through the public calls of each layer, in
// the model's own order (GCN2.InferTo: per layer X·W, then Â·, then
// ReLU between layers), with a span around every call. Its output is
// bitwise equal to the engine's.
func replay(tr *tracer, ctx *exec.Ctx, in *instance, out, x *dense.Matrix) {
	op := tr.newOp()
	root := tr.begin(op, spanReplay, -1)
	if in.model == nil {
		t := ctx.Borrow(x.Rows, x.Cols)
		tr.timed(op, spanAggregate, root, func() { in.adj.MulToCtx(ctx, t, x) })
		tr.timed(op, spanAggregate, root, func() { in.adj.MulToCtx(ctx, out, t) })
		ctx.Release(t)
		tr.end(root)
		return
	}
	ls := layers(in.model)
	cur, prev := x, (*dense.Matrix)(nil)
	for l, layer := range ls {
		last := l == len(ls)-1
		dst := out
		if !last {
			dst = ctx.Borrow(x.Rows, layer.Lin.Out)
		}
		xw := ctx.Borrow(x.Rows, layer.Lin.Out)
		tr.timed(op, spanGemm, root, func() { layer.Lin.ForwardTo(ctx, xw, cur) })
		tr.timed(op, spanAggregate, root, func() { in.adj.MulToCtx(ctx, dst, xw) })
		ctx.Release(xw)
		if prev != nil {
			ctx.Release(prev)
			prev = nil
		}
		if !last {
			tr.timed(op, spanReLU, root, func() { dst.ReLU() })
			prev = dst
		}
		cur = dst
	}
	tr.end(root)
}

// writeTrace writes the spans and the per-name median self times as
// JSON into dir and returns the file's path.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	self := map[string]float64{}
	for name, v := range selfTimes(spans) {
		self[name] = median(v)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms_median"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
