package exec

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/obs"
)

func TestArenaBorrowShapesAndZeroing(t *testing.T) {
	ctx := New(1)
	m := ctx.Borrow(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("Borrow(3,5) = %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = float32(i + 1)
	}
	ctx.Release(m)

	// Same size class (15 and 10 both round up to 16): the dirtied
	// buffer must come back zeroed.
	m2 := ctx.Borrow(2, 5)
	if m2.Rows != 2 || m2.Cols != 5 || len(m2.Data) != 10 {
		t.Fatalf("Borrow(2,5) = %d×%d len %d", m2.Rows, m2.Cols, len(m2.Data))
	}
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	ctx.Release(m2)
}

func TestArenaRecyclesWithinClass(t *testing.T) {
	var a Arena
	m := a.Borrow(4, 4) // 16 elements, class 4
	p := &m.Data[0]
	a.Release(m)
	m2 := a.Borrow(2, 8) // also 16 elements
	if &m2.Data[0] != p {
		t.Fatalf("same-class borrow did not recycle the released storage")
	}
	a.Release(m2)
	m3 := a.Borrow(16, 16) // 256 elements, different class
	if len(m3.Data) != 256 {
		t.Fatalf("Borrow(16,16) len %d", len(m3.Data))
	}
	a.Release(m3)
}

func TestSizeClass(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 10, 10}, {1<<10 + 1, 11},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.class {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestArenaOutstanding(t *testing.T) {
	var a Arena
	if a.Outstanding() != 0 {
		t.Fatalf("fresh arena outstanding = %d", a.Outstanding())
	}
	x := a.Borrow(2, 2)
	y := a.Borrow(3, 3)
	if a.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", a.Outstanding())
	}
	a.Release(x)
	if a.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", a.Outstanding())
	}
	a.Release(y)
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", a.Outstanding())
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	var a Arena
	m := a.Borrow(2, 2)
	a.Release(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	a.Release(m)
}

func TestArenaForeignReleasePanics(t *testing.T) {
	var a Arena
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a foreign matrix did not panic")
		}
	}()
	a.Release(dense.New(2, 2))
}

func TestArenaNegativeShapePanics(t *testing.T) {
	var a Arena
	defer func() {
		if recover() == nil {
			t.Fatal("Borrow(-1, 2) did not panic")
		}
	}()
	a.Borrow(-1, 2)
}

// TestArenaSteadyStateZeroAlloc is the contract the whole refactor
// exists for: once a size class is warm, borrow/release cycles touch
// only the local free list and allocate nothing.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	ctx := NewWithSink(1, obs.NopSink{})
	// Warm the classes and the lent list.
	warm := func() {
		x := ctx.Borrow(8, 16)
		y := ctx.Borrow(8, 4)
		ctx.Release(y)
		ctx.Release(x)
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("steady-state borrow/release allocates %v times per cycle", allocs)
	}
}

func TestNewWithSinkNilMeansNop(t *testing.T) {
	ctx := NewWithSink(3, nil)
	if ctx.Threads() != 3 {
		t.Fatalf("Threads() = %d, want 3", ctx.Threads())
	}
	// Must not panic despite the nil sink argument.
	sp := ctx.Begin(obs.StageInfer)
	sp.End()
	ctx.Inc(obs.CounterArenaBorrows)
	m := ctx.Borrow(2, 2)
	ctx.Release(m)
}

type countingSink struct {
	borrows int
	grows   int
}

func (s *countingSink) Begin(obs.Stage) obs.Span { return obs.Span{} }
func (s *countingSink) Inc(c obs.Counter) {
	switch c {
	case obs.CounterArenaBorrows:
		s.borrows++
	case obs.CounterArenaGrows:
		s.grows++
	}
}

func TestArenaCountsBorrowsAndGrows(t *testing.T) {
	s := &countingSink{}
	ctx := NewWithSink(1, s)
	m := ctx.Borrow(4, 4)
	ctx.Release(m)
	m = ctx.Borrow(4, 4) // recycled: borrow counted, no grow
	ctx.Release(m)
	if s.borrows != 2 {
		t.Fatalf("borrows = %d, want 2", s.borrows)
	}
	// The first borrow missed the local free list; the second hit it.
	if s.grows != 1 {
		t.Fatalf("grows = %d, want 1", s.grows)
	}
}

// TestArenaLeaseAccounting pins the wide-lease numbers behind batched
// serving: LentElems tracks the reserved (size-class, power-of-two)
// capacity of outstanding buffers and PeakLentElems its high-water
// mark, so a micro-batch's one-wide-lease footprint is observable.
func TestArenaLeaseAccounting(t *testing.T) {
	var a Arena
	if a.LentElems() != 0 || a.PeakLentElems() != 0 {
		t.Fatalf("fresh arena lent=%d peak=%d", a.LentElems(), a.PeakLentElems())
	}
	x := a.Borrow(2, 3) // 6 elems → class 8
	if a.LentElems() != 8 {
		t.Fatalf("lent = %d, want 8 (class rounding)", a.LentElems())
	}
	y := a.Borrow(4, 4) // 16 elems → class 16
	if a.LentElems() != 24 || a.PeakLentElems() != 24 {
		t.Fatalf("lent = %d peak = %d, want 24/24", a.LentElems(), a.PeakLentElems())
	}
	a.Release(x)
	if a.LentElems() != 16 {
		t.Fatalf("lent after release = %d, want 16", a.LentElems())
	}
	a.Release(y)
	if a.LentElems() != 0 {
		t.Fatalf("lent after all releases = %d, want 0", a.LentElems())
	}
	// The peak persists: it reports the widest concurrent footprint ever
	// held, not the current one.
	if a.PeakLentElems() != 24 {
		t.Fatalf("peak = %d, want 24", a.PeakLentElems())
	}
	// A single wide borrow (the batched-serving shape) moves the peak
	// only if it exceeds the prior concurrent total.
	w := a.Borrow(1, 20) // 20 elems → class 32
	if a.LentElems() != 32 || a.PeakLentElems() != 32 {
		t.Fatalf("wide lease lent=%d peak=%d, want 32/32", a.LentElems(), a.PeakLentElems())
	}
	a.Release(w)
}
