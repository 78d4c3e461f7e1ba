package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/dense"
	"repro/internal/obs"
)

// numClasses bounds the size-class space: class k holds buffers of
// capacity 2^k float32 elements, so the largest poolable matrix is
// 2^39 elements (2 TiB) — far beyond anything this repository builds.
const numClasses = 40

// keepPerClass is how many free buffers a single arena retains per
// size class before spilling to the process-global pools. The forward
// path of the deepest model holds three scratch buffers at once;
// sixteen gives generous headroom without hoarding memory in an idle
// context.
const keepPerClass = 16

// classPools is the process-global spillover, shared by every arena:
// buffers evicted from one context's local free lists park here and
// bootstrap other contexts, so a freshly created Ctx usually recycles
// warm memory instead of allocating. sync.Pool gives the GC license
// to reclaim parked buffers under pressure; the deterministic
// zero-alloc guarantee rests on the local free lists only.
var classPools [numClasses]sync.Pool

// entry is one pooled buffer: the backing storage (always a full
// power-of-two capacity) plus the Matrix header handed to borrowers.
// The header is embedded by value so Borrow can return a stable
// pointer without allocating one.
type entry struct {
	m     dense.Matrix
	data  []float32
	class int
}

// Arena is a size-bucketed pool of dense matrices with shape-checked
// borrow/release recycling. Requested shapes are rounded up to the
// next power-of-two element count, so any rows×cols with the same
// class recycles the same storage — exactly what the layer-to-layer
// width changes of a GNN forward pass need. An Arena is single-owner:
// it serves one goroutine at a time (see the package comment).
//
// The zero Arena is ready to use (and reports to no sink); contexts
// built by New/NewWithSink attach their sink.
type Arena struct {
	sink obs.Sink
	free [numClasses][]*entry
	lent []*entry
	// lentElems is the summed reserved capacity (float32 elements, full
	// size classes) of outstanding buffers; peakLent is its high-water
	// mark. Together they are the wide-lease accounting behind batched
	// serving: one micro-batch borrows one wide buffer set instead of
	// per-request narrow ones, and these numbers bound its footprint.
	lentElems int
	peakLent  int
}

// sizeClass maps an element count to its power-of-two class.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Borrow leases a zeroed rows×cols matrix. Steady state — the class
// was borrowed and released on this arena before — touches only the
// local free list and performs no allocation; misses fall through to
// the global pools and, last, the allocator.
//
//cbm:hotpath
func (a *Arena) Borrow(rows, cols int) *dense.Matrix {
	m := a.BorrowUninit(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// BorrowUninit is Borrow without the zeroing pass: the returned
// matrix holds whatever bits the recycled storage carried. Only for
// destinations the caller fully overwrites before reading (every
// multiply kernel in this repository overwrites its output, and the
// batched gather covers every column stripe); the saved memset is
// what makes wide micro-batch scratch — k× a request's footprint —
// cheaper than k narrow borrows.
//
//cbm:hotpath
func (a *Arena) BorrowUninit(rows, cols int) *dense.Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("exec: Borrow invalid shape %d×%d", rows, cols))
	}
	n := rows * cols
	class := 0
	if n > 1 {
		class = bits.Len(uint(n - 1))
	}
	if class >= numClasses {
		panic(fmt.Sprintf("exec: Borrow shape %d×%d exceeds the poolable size", rows, cols))
	}
	if a.sink != nil {
		a.sink.Inc(obs.CounterArenaBorrows)
	}
	var e *entry
	if fl := a.free[class]; len(fl) != 0 {
		e = fl[len(fl)-1]
		fl[len(fl)-1] = nil
		a.free[class] = fl[:len(fl)-1]
	} else {
		e = a.obtain(class)
	}
	if len(a.lent) == cap(a.lent) {
		a.growLent()
	}
	a.lent = a.lent[:len(a.lent)+1]
	a.lent[len(a.lent)-1] = e
	a.lentElems += 1 << class
	if a.lentElems > a.peakLent {
		a.peakLent = a.lentElems
	}
	e.m.Rows, e.m.Cols = rows, cols
	e.m.Data = e.data[:n:n]
	return &e.m
}

// Release returns a borrowed matrix to the arena. The matrix must be
// the exact pointer Borrow returned; anything else — including a
// second Release of the same matrix — panics, because a buffer that
// re-enters the free list while still referenced would silently
// corrupt a later borrower.
//
//cbm:hotpath
func (a *Arena) Release(m *dense.Matrix) {
	for i, e := range a.lent {
		if &e.m != m {
			continue
		}
		last := len(a.lent) - 1
		a.lent[i] = a.lent[last]
		a.lent[last] = nil
		a.lent = a.lent[:last]
		a.lentElems -= 1 << e.class
		e.m.Data = nil // a released header must not alias live storage
		fl := a.free[e.class]
		if len(fl) >= keepPerClass {
			spill(e)
			return
		}
		if len(fl) == cap(fl) {
			a.growFree(e.class)
			fl = a.free[e.class]
		}
		fl = fl[:len(fl)+1]
		fl[len(fl)-1] = e
		a.free[e.class] = fl
		return
	}
	panic(releasePanicMsg(m))
}

// Outstanding reports how many borrowed matrices have not been
// released — zero between well-behaved requests, which is what
// gnn.Engine asserts when a lease returns to its pool.
func (a *Arena) Outstanding() int { return len(a.lent) }

// LentElems reports the summed reserved capacity, in float32 elements,
// of currently outstanding buffers (size classes are powers of two, so
// this is the storage actually pinned, not the shapes requested).
func (a *Arena) LentElems() int { return a.lentElems }

// PeakLentElems reports the high-water mark of LentElems over the
// arena's lifetime — the wide-lease accounting number: for a batched
// engine it bounds the widest concurrent scratch one batch ever held.
func (a *Arena) PeakLentElems() int { return a.peakLent }

// obtain is the Borrow miss path: recycle from the global class pool
// or allocate fresh storage. Cold by construction, so it may allocate.
func (a *Arena) obtain(class int) *entry {
	if a.sink != nil {
		a.sink.Inc(obs.CounterArenaGrows)
	}
	if v := classPools[class].Get(); v != nil {
		return v.(*entry)
	}
	return &entry{data: make([]float32, 1<<class), class: class}
}

// spill parks an over-quota buffer in the process-global pool.
func spill(e *entry) { classPools[e.class].Put(e) }

// growLent reallocates the lent list with doubled capacity. Cold: it
// runs only when the arena sees a deeper borrow nesting than ever
// before.
func (a *Arena) growLent() {
	nl := make([]*entry, len(a.lent), grownCap(cap(a.lent)))
	copy(nl, a.lent)
	a.lent = nl
}

// growFree reallocates one class's free list with doubled capacity.
func (a *Arena) growFree(class int) {
	fl := a.free[class]
	nl := make([]*entry, len(fl), grownCap(cap(fl)))
	copy(nl, fl)
	a.free[class] = nl
}

func grownCap(c int) int {
	if c < 4 {
		return 4
	}
	return 2 * c
}

// releasePanicMsg lives out of line so Release keeps an
// allocation-free success path (same idiom as cbm.kindPanicMsg).
func releasePanicMsg(m *dense.Matrix) string {
	return fmt.Sprintf("exec: Release of %d×%d matrix this arena did not lend (double release or foreign matrix)", m.Rows, m.Cols)
}
