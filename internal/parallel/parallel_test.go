package parallel

import (
	"sync/atomic"
	"testing"
)

// Every loop primitive visits each index once, for thread counts below,
// at and above n and the default.
func TestForCoversAllIndices(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 5, 16, 97} {
			hits := make([]int32, n)
			ForDynamic(n, threads, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
			ForRange(n, threads, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 2 {
					t.Fatalf("threads=%d n=%d: index %d hit %d times, want once per primitive", threads, n, i, h)
				}
			}
		}
	}
}

func TestForRangeCoversDisjointBlocks(t *testing.T) {
	for _, threads := range []int{1, 2, 7, 16} {
		n := 103
		hits := make([]int32, n)
		ForRange(n, threads, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty block [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d hit %d times", threads, i, h)
			}
		}
	}
}

func TestForDynamicCoversAllIndices(t *testing.T) {
	for _, threads := range []int{0, 1, 4, 9} {
		for _, grain := range []int{0, 1, 3, 64} {
			n := 777
			hits := make([]int32, n)
			ForDynamic(n, threads, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d grain=%d: index %d hit %d times", threads, grain, i, h)
				}
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	ForDynamic(0, 4, 1, func(int) { called = true })
	ForDynamic(-3, 4, 1, func(int) { called = true })
	ForRange(-1, 4, func(int, int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("Do missed a function: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

// Edge cases of the distribution logic, table-driven: fewer iterations
// than workers, grains exceeding n, and the threads < 1 default path.
func TestForDynamicEdgeCases(t *testing.T) {
	cases := []struct {
		name              string
		n, threads, grain int
	}{
		{"n smaller than threads", 3, 8, 1},
		{"grain larger than n", 5, 4, 100},
		{"threads<1 selects default", 777, 0, 3},
		{"negative threads selects default", 777, -5, 3},
		{"single iteration", 1, 16, 7},
		{"grain<1 normalized to 1", 40, 4, 0},
		{"everything degenerate", 1, -1, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hits := make([]int32, c.n)
			ForDynamic(c.n, c.threads, c.grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("index %d hit %d times", i, h)
				}
			}
		})
	}
}

func TestSequential(t *testing.T) {
	max := DefaultThreads()
	cases := []struct {
		threads, n int
		want       bool
	}{
		{1, 100, true},     // explicit single thread
		{4, 1, true},       // one iteration clamps to one worker
		{4, 0, true},       // empty loop runs (vacuously) inline
		{2, 100, false},    // genuine parallel request
		{-1, 1, true},      // default threads, but only one iteration
		{0, 100, max == 1}, // default threads over many iterations
	}
	for _, c := range cases {
		if got := Sequential(c.threads, c.n); got != c.want {
			t.Errorf("Sequential(%d, %d) = %v, want %v", c.threads, c.n, got, c.want)
		}
	}
	// Sequential must agree with EffectiveThreads by construction.
	for threads := -1; threads <= 4; threads++ {
		for _, n := range []int{0, 1, 2, 100} {
			if Sequential(threads, n) != (EffectiveThreads(threads, n) == 1) {
				t.Fatalf("Sequential(%d, %d) disagrees with EffectiveThreads", threads, n)
			}
		}
	}
}
