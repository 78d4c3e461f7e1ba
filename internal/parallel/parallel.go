// Package parallel provides shared-memory work distribution primitives
// used throughout the repository: static and dynamic parallel loops and
// a simple fork-join helper. They play the role OpenMP's "parallel for"
// (static and dynamic schedules) plays in the paper's C++
// implementation — including OpenMP's cost model: all loops execute on
// a persistent worker pool (see pool.go) that is started once and
// reused for the life of the process, so a parallel region costs a few
// atomic operations, not goroutine creation.
package parallel

import (
	"runtime"
	"sync"
)

// DefaultThreads returns the default worker count: GOMAXPROCS.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// clampThreads normalizes a requested thread count: values < 1 mean
// "use the default", and the count never exceeds n (no point spawning
// workers with no iterations to run).
func clampThreads(threads, n int) int {
	if threads < 1 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// EffectiveThreads reports the worker count a parallel call over n
// iterations with the given requested thread count will actually use:
// threads < 1 selects DefaultThreads(), and the result never exceeds n
// (and is never below 1). Kernels that derive per-thread quantities —
// e.g. the SpMM grain size — must use this, not the raw request, or
// the two can disagree for small inputs and produce oversized grains.
func EffectiveThreads(threads, n int) int {
	return clampThreads(threads, n)
}

// Sequential reports whether a parallel call over n iterations with
// the given requested thread count will run inline on the calling
// goroutine. Kernels use it to take closure-free sequential fast
// paths: a closure passed to ForRange/ForDynamic heap-allocates
// at the call site even when the loop then runs inline, which is
// exactly the per-call garbage the zero-allocation serving path must
// not produce.
func Sequential(threads, n int) bool {
	return clampThreads(threads, n) == 1
}

// ForRange runs body(lo, hi) over a static partition of [0, n) into
// one contiguous block per thread. It is the cheapest schedule when
// per-iteration work is uniform and lets the body keep per-block state.
func ForRange(n, threads int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = clampThreads(threads, n)
	if threads == 1 {
		body(0, n)
		return
	}
	chunk := (n + threads - 1) / threads
	j := newJob()
	j.kind = jobRange
	j.bodyRange = body
	j.n = n
	j.chunk = chunk
	j.nblocks = int64((n + chunk - 1) / chunk)
	submit(j, threads-1)
}

// ForDynamic runs body(i) for i in [0, n) with dynamic scheduling:
// workers grab chunks of `grain` consecutive iterations from a shared
// atomic counter. It corresponds to OpenMP's schedule(dynamic, grain)
// and is the right choice when iteration costs are skewed (e.g. the
// update-stage branches of a CBM compression tree).
func ForDynamic(n, threads, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nblocks := (n + grain - 1) / grain
	threads = clampThreads(threads, nblocks)
	if threads == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	j := newJob()
	j.kind = jobFor
	j.body = body
	j.n = n
	j.chunk = grain
	j.nblocks = int64(nblocks)
	submit(j, threads-1)
}

// Do runs the given functions concurrently and waits for all of them.
// Unlike the loop primitives, Do guarantees every function its own
// goroutine (they may synchronize with each other), so it does not go
// through the worker pool, where a busy moment would serialize them.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}
