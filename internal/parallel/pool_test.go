package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// warmPool makes sure the shared worker set has been started so
// goroutine-count baselines include the parked workers. The thread
// count is explicit: the default degrades to the inline sequential
// path on single-CPU hosts, which would never touch the pool.
func warmPool() {
	ForDynamic(1024, 8, 1, func(int) {})
}

// TestPoolReuseNoGoroutineLeak drives every pool-routed primitive
// through >10k calls and asserts the process goroutine count returns to
// the post-startup baseline: the pool must reuse its parked workers,
// never grow them per call.
func TestPoolReuseNoGoroutineLeak(t *testing.T) {
	warmPool()
	baseline := runtime.NumGoroutine()

	var sink atomic.Int64
	for call := 0; call < 10_500; call++ {
		if call%2 == 0 {
			ForRange(64, 3, func(lo, hi int) { sink.Add(int64(hi - lo)) })
		} else {
			ForDynamic(64, 4, 5, func(i int) { sink.Add(1) })
		}
	}

	// Workers park synchronously, but the runtime may briefly report
	// goroutines that are re-entering their mailbox receive; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after 10.5k pool calls, baseline %d — pool leaked workers",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sink.Load() == 0 {
		t.Fatal("bodies never ran")
	}
}

// TestPoolNestedCallsRaceStress issues parallel calls from inside
// parallel calls from several concurrent top-level goroutines — the
// shape a GNN forward pass produces (layer loop → SpMM → blas) — and
// verifies full iteration coverage. Run under -race in CI, this is the
// pool's data-race gate; it also proves nested submission cannot
// deadlock when every worker is busy.
func TestPoolNestedCallsRaceStress(t *testing.T) {
	const outer, mid, inner = 12, 9, 40
	done := make(chan [mid * inner]int32, outer)
	for g := 0; g < outer; g++ {
		go func(seed int) {
			var hits [mid * inner]int32
			ForDynamic(mid, 4, 1, func(i int) {
				ForDynamic(inner, 3, 4, func(k int) {
					atomic.AddInt32(&hits[i*inner+k], 1)
				})
				// A nested range loop exercises jobRange under contention.
				var sum atomic.Int64
				ForRange(inner, 2, func(lo, hi int) {
					for k := lo; k < hi; k++ {
						sum.Add(int64(k))
					}
				})
				if sum.Load() != inner*(inner-1)/2 {
					panic("nested ForRange lost iterations")
				}
			})
			done <- hits
		}(g)
	}
	for g := 0; g < outer; g++ {
		hits := <-done
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("goroutine %d: nested index %d hit %d times", g, i, h)
			}
		}
	}
}

// TestPoolSubmitSteadyStateAllocs pins the allocation-free submit
// contract: after warm-up, routing a call through the pool must not
// allocate (jobs recycle through a sync.Pool, the free list never
// regrows). One allocation of slack is allowed for a GC emptying the
// job pool mid-measurement.
func TestPoolSubmitSteadyStateAllocs(t *testing.T) {
	warmPool()
	var sink atomic.Int64
	body := func(i int) { sink.Add(1) }
	allocs := testing.AllocsPerRun(200, func() {
		ForDynamic(256, 4, 16, body)
	})
	if allocs > 1 {
		t.Fatalf("steady-state pool submit allocates %.1f objects per call, want ≤ 1", allocs)
	}
}

// TestEffectiveThreads pins the clamping rules kernels rely on when
// deriving per-thread grain sizes.
func TestEffectiveThreads(t *testing.T) {
	def := DefaultThreads()
	cases := []struct {
		threads, n, want int
	}{
		{0, 1 << 20, def},           // <1 selects the default
		{-3, 1 << 20, def},          // negative too
		{8, 3, 3},                   // never more workers than iterations
		{8, 0, 1},                   // degenerate n still yields ≥ 1
		{1, 100, 1},                 // explicit sequential passes through
		{4, 100, 4},                 // plenty of work: honor the request
		{0, 1, 1},                   // default clamped by tiny n
		{def + 7, 1 << 20, def + 7}, // requests above default are honored
	}
	for _, c := range cases {
		if got := EffectiveThreads(c.threads, c.n); got != c.want {
			t.Errorf("EffectiveThreads(%d, %d) = %d, want %d", c.threads, c.n, got, c.want)
		}
	}
}
