package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// defaultLeaseCap bounds the unprovisioned lease free list. Serving
// front-ends size the pool explicitly via ProvisionScratch; the
// default only has to cover ad-hoc MulTo callers.
const defaultLeaseCap = 8

// lease is one request's worth of per-shard execution state: a
// sequential exec.Ctx per shard (each owning the shard's scratch
// arena) and preallocated slab headers the hot path repoints at the
// caller's operand and output rows. Leases recycle through a channel
// free list, so a warmed-up lease serves requests with zero
// allocations.
type lease struct {
	ctxs []*exec.Ctx
	cHdr []dense.Matrix
	bHdr []dense.Matrix
}

// ShardedAdjacency serves the normalized product D·(A+I)·D as S
// row-block shards: each shard multiplies its intra-block CBM into its
// disjoint output slab, then accumulates its halo remainder over
// gathered frontier rows of the operand. Output slabs are disjoint and
// every shard's work is sequential with a fixed accumulation order, so
// the result is bitwise-reproducible at any thread count. It
// implements gnn.Adjacency.
type ShardedAdjacency struct {
	n       int
	parts   []shardPart
	stats   Stats
	haloNNZ int64

	footprint int64
	leases    chan *lease
	leaks     atomic.Int64
}

// Rows returns the number of graph nodes.
func (a *ShardedAdjacency) Rows() int { return a.n }

// NumShards returns the shard count.
func (a *ShardedAdjacency) NumShards() int { return len(a.parts) }

// Bounds returns shard s's row range [lo, hi).
func (a *ShardedAdjacency) Bounds(s int) (lo, hi int) { return a.parts[s].lo, a.parts[s].hi }

// Plan returns shard s's pinned execution plan.
func (a *ShardedAdjacency) Plan(s int) cbm.UpdateStrategy { return a.parts[s].plan }

// Frontier returns shard s's sorted out-of-block column ids
// (read-only by convention).
func (a *ShardedAdjacency) Frontier(s int) []int32 { return a.parts[s].frontier }

// Stats returns the build statistics.
func (a *ShardedAdjacency) Stats() Stats { return a.stats }

// FootprintBytes returns the summed footprint of every shard's intra
// CBM, halo CSR and frontier index.
func (a *ShardedAdjacency) FootprintBytes() int64 { return a.footprint }

// ScratchLeaks returns the number of leases quarantined because a
// multiply left per-shard arena buffers outstanding. Non-zero means a
// shard path lost a buffer; gnn.Engine turns it into a panic at
// release time.
func (a *ShardedAdjacency) ScratchLeaks() int { return int(a.leaks.Load()) }

// ProvisionScratch grows the lease free list to n pre-built leases, so
// a serving front-end admitting at most n concurrent requests never
// allocates a lease mid-request. Call before serving; not safe
// concurrently with multiplies.
func (a *ShardedAdjacency) ProvisionScratch(n int) {
	if n < 1 {
		n = 1
	}
	if n > cap(a.leases) {
		old := a.leases
		a.leases = make(chan *lease, n)
		for {
			select {
			case ls := <-old:
				a.leases <- ls
			default:
				for len(a.leases) < n {
					a.leases <- a.newLease()
				}
				return
			}
		}
	}
	for len(a.leases) < n {
		select {
		case a.leases <- a.newLease():
		default:
			return
		}
	}
}

// newLease builds a cold lease: one sequential ctx per shard plus the
// reusable slab headers. Unannotated — this is the slow path the
// channel free list exists to avoid.
func (a *ShardedAdjacency) newLease() *lease {
	ls := &lease{
		ctxs: make([]*exec.Ctx, len(a.parts)),
		cHdr: make([]dense.Matrix, len(a.parts)),
		bHdr: make([]dense.Matrix, len(a.parts)),
	}
	for s := range ls.ctxs {
		ls.ctxs[s] = exec.New(1)
	}
	return ls
}

// acquire pops a pooled lease or builds a cold one.
//
//cbm:hotpath
func (a *ShardedAdjacency) acquire() *lease {
	select {
	case ls := <-a.leases:
		return ls
	default:
		return a.newLease()
	}
}

// release returns a clean lease to the free list. A lease whose
// per-shard arenas still have buffers outstanding is quarantined (never
// re-pooled) and counted in ScratchLeaks — a panic here would race the
// shard loop that is still running on another goroutine's behalf, so
// enforcement is left to the serving layer's release point.
//
//cbm:hotpath
func (a *ShardedAdjacency) release(ls *lease) {
	for _, ctx := range ls.ctxs {
		if ctx.Arena().Outstanding() != 0 {
			a.leaks.Add(1)
			return
		}
	}
	select {
	case a.leases <- ls:
	default:
	}
}

// MulTo computes c = D·(A+I)·D · b with the given thread budget
// (threads < 1 selects the default), bitwise-identical to MulToCtx.
//
//cbm:hotpath
func (a *ShardedAdjacency) MulTo(c, b *dense.Matrix, threads int) {
	a.mulTo(c, b, threads, obs.Global)
}

// MulToCtx is MulTo under an execution context: the ctx supplies the
// thread budget and observability sink, while per-shard scratch comes
// from the lease pool's own arenas (one arena per shard, as each shard
// is an independent working set).
//
//cbm:hotpath
func (a *ShardedAdjacency) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	a.mulTo(c, b, ctx.Threads(), ctx.Sink())
}

//cbm:hotpath
func (a *ShardedAdjacency) mulTo(c, b *dense.Matrix, threads int, sink obs.Sink) {
	a.checkShapes(c, b)
	sink.Inc(obs.CounterShardMuls)
	obs.Add(obs.CounterHaloNNZ, a.haloNNZ)
	ls := a.acquire()
	// Sequential fast path: shards in index order, closure-free, so the
	// zero-allocation serving configuration (engine slots at threads=1)
	// stays allocation-free. The parallel path computes identical bits —
	// shards write disjoint row slabs and all accumulation is per-shard
	// sequential — so scheduling order cannot show in the output.
	if parallel.Sequential(threads, len(a.parts)) {
		for s := range a.parts {
			a.runShard(ls, s, c, b, sink)
		}
	} else {
		parallel.ForDynamic(len(a.parts), threads, 1, func(s int) {
			a.runShard(ls, s, c, b, sink)
		})
	}
	a.release(ls)
}

// runShard executes shard s: intra-block CBM multiply into the shard's
// output slab, then halo accumulation over gathered frontier rows. All
// work is sequential on the calling goroutine; the per-shard ctx only
// carries the shard's arena.
//
//cbm:hotpath
func (a *ShardedAdjacency) runShard(ls *lease, s int, c, b *dense.Matrix, sink obs.Sink) {
	p := &a.parts[s]
	sctx := ls.ctxs[s]
	rows := p.hi - p.lo
	cs := &ls.cHdr[s]
	bs := &ls.bHdr[s]
	cs.Rows, cs.Cols = rows, c.Cols
	cs.Data = c.Data[p.lo*c.Cols : p.hi*c.Cols : p.hi*c.Cols]
	bs.Rows, bs.Cols = rows, b.Cols
	bs.Data = b.Data[p.lo*b.Cols : p.hi*b.Cols : p.hi*b.Cols]

	sp := sink.Begin(obs.StageShard)
	p.intra.MulToStrategyCtx(sctx, cs, bs, p.plan)
	sp.End()

	if len(p.frontier) == 0 {
		return
	}
	hsp := sink.Begin(obs.StageHalo)
	g := sctx.BorrowUninit(len(p.frontier), b.Cols)
	for k, col := range p.frontier {
		copy(g.Row(k), b.Row(int(col)))
	}
	kernels.SpMMAddToSink(cs, p.halo, g, 1, sink)
	sctx.Release(g)
	hsp.End()
}

// checkShapes validates the operand and output against the adjacency.
func (a *ShardedAdjacency) checkShapes(c, b *dense.Matrix) {
	if b.Rows != a.n {
		panic(fmt.Sprintf("shard: operand has %d rows, adjacency has %d nodes", b.Rows, a.n))
	}
	if c.Rows != a.n || c.Cols != b.Cols {
		panic(fmt.Sprintf("shard: output is %dx%d, want %dx%d", c.Rows, c.Cols, a.n, b.Cols))
	}
}
