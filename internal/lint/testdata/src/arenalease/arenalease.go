// Fixture for the arenalease analyzer: every Borrow/BorrowUninit must
// be released exactly once on every path; double release, use after
// release and cross-arena release are flagged; ownership transfers
// (return, store, closure capture) and deferred releases are exempt.
package arenalease

type Matrix struct{ rows, cols int }

type Ctx struct{ arena *Arena }

func (c *Ctx) Borrow(rows, cols int) *Matrix       { return &Matrix{rows, cols} }
func (c *Ctx) BorrowUninit(rows, cols int) *Matrix { return &Matrix{rows, cols} }
func (c *Ctx) Release(m *Matrix)                   {}

type Arena struct{ lent int }

func (a *Arena) Borrow(rows, cols int) *Matrix { return &Matrix{rows, cols} }
func (a *Arena) Release(m *Matrix)             {}

func use(m *Matrix) {}

// Positive: the early return leaks the borrow.
func leakOnEarlyReturn(ctx *Ctx, shed bool) int {
	m := ctx.Borrow(4, 4) // want `arenalease: borrow is not released on every path \(return at line \d+\)`
	if shed {
		return -1
	}
	use(m)
	ctx.Release(m)
	return 0
}

// Positive: no release at all; the fall-off end is the leaking exit.
func leakNoRelease(a *Arena) {
	m := a.Borrow(2, 2) // want `arenalease: borrow is not released on every path \(return at line \d+\)`
	use(m)
}

// Positive: the panic-guard exit leaks (a defer would not).
func leakOnPanicGuard(ctx *Ctx, n int) {
	m := ctx.Borrow(n, n) // want `arenalease: borrow is not released on every path \(panic exit at line \d+\)`
	if n < 0 {
		panic("negative dimension")
	}
	use(m)
	ctx.Release(m)
}

// Positive: released twice on the same path.
func doubleRelease(ctx *Ctx) {
	m := ctx.Borrow(2, 2)
	ctx.Release(m)
	ctx.Release(m) // want `arenalease: m released twice \(borrowed at line \d+\)`
}

// Positive: used after release.
func useAfterRelease(ctx *Ctx) {
	m := ctx.Borrow(2, 2)
	ctx.Release(m)
	use(m) // want `arenalease: m used after release`
}

// Positive: borrowed from one arena, released into another.
func foreignRelease(a, b *Ctx) {
	m := a.Borrow(2, 2)
	b.Release(m) // want `arenalease: m borrowed from "a" but released into "b"`
}

// Positive: the borrow result is discarded and can never be released.
func discarded(ctx *Ctx) {
	ctx.Borrow(2, 2)     // want `arenalease: borrow result discarded`
	_ = ctx.Borrow(2, 2) // want `arenalease: borrow result discarded`
}

// Positive: rebinding the only reference loses the first lease.
func overwritten(ctx *Ctx) {
	m := ctx.Borrow(2, 2) // want `arenalease: borrow is overwritten at line \d+ before being released`
	m = ctx.Borrow(2, 2)
	ctx.Release(m)
}

// Negative: the straight-line pairing the whole repo uses.
func pairedOK(ctx *Ctx) {
	m := ctx.Borrow(2, 2)
	use(m)
	ctx.Release(m)
}

// Negative: released on both the early-return and fall-through paths.
func branchBothOK(ctx *Ctx, cond bool) {
	m := ctx.Borrow(2, 2)
	if cond {
		use(m)
		ctx.Release(m)
		return
	}
	ctx.Release(m)
}

// Negative: defer discharges the obligation on every exit, the
// explicit panic included.
func deferOK(ctx *Ctx, n int) {
	m := ctx.Borrow(n, n)
	defer ctx.Release(m)
	if n < 0 {
		panic("negative dimension")
	}
	use(m)
}

// Negative: deferred closure releasing the borrow also counts.
func deferClosureOK(ctx *Ctx, n int) {
	m := ctx.Borrow(n, n)
	defer func() {
		ctx.Release(m)
	}()
	if n < 0 {
		panic("negative dimension")
	}
	use(m)
}

// Negative: returning the borrow transfers ownership to the caller —
// the exec.Ctx.Borrow wrapper itself has this shape.
func transferOut(ctx *Ctx, n int) *Matrix {
	m := ctx.Borrow(n, n)
	use(m)
	return m
}

type holder struct{ m *Matrix }

// Negative: storing the borrow into a struct transfers ownership out
// of the function's view.
func escapeToField(ctx *Ctx, h *holder) {
	m := ctx.Borrow(2, 2)
	h.m = m
}

// Negative: a closure capturing the borrow takes it out of view.
func escapeToClosure(ctx *Ctx, run func(func())) {
	m := ctx.Borrow(2, 2)
	run(func() { use(m) })
}

// Negative: the loop-carried ping-pong of inferStackTo — borrow this
// iteration, release it the next, guarded by a nil check.
func loopCarried(ctx *Ctx, layers int) {
	var prev *Matrix
	for i := 0; i < layers; i++ {
		cur := ctx.Borrow(4, 4)
		use(cur)
		if prev != nil {
			ctx.Release(prev)
			prev = nil
		}
		prev = cur
	}
	if prev != nil {
		ctx.Release(prev)
	}
}

// Negative: correlated guards — the borrow and the keep-alive are both
// gated on the same condition, so no path borrows without keeping.
func pingPong(ctx *Ctx, out *Matrix, n int) {
	var prev *Matrix
	for i := 0; i < n; i++ {
		dst := out
		if i != n-1 {
			dst = ctx.Borrow(4, 4)
		}
		use(dst)
		if prev != nil {
			ctx.Release(prev)
			prev = nil
		}
		if i != n-1 {
			prev = dst
		}
	}
}
