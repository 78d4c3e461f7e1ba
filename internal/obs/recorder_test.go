package obs

import (
	"sync"
	"testing"
	"time"
)

// A recorder must see exactly the spans begun on it, while the global
// totals keep seeing everything — the scoping contract the bench
// report's per-stage split relies on.
func TestRecorderScopesSpans(t *testing.T) {
	Reset()
	rec := NewRecorder()
	other := NewRecorder()

	sp := rec.Begin(StageSpMM)
	time.Sleep(time.Millisecond)
	sp.End()
	gsp := Begin(StageSpMM) // global-only span, foreign to both recorders
	gsp.End()
	osp := other.Begin(StageSpMM)
	osp.End()

	if c, _ := rec.StageTotals(StageSpMM); c != 1 {
		t.Fatalf("recorder saw %d spmm spans, want 1 (own only)", c)
	}
	if rec.StageSeconds(StageSpMM) <= 0 {
		t.Fatal("recorder span recorded no time")
	}
	if c, _ := other.StageTotals(StageSpMM); c != 1 {
		t.Fatalf("second recorder saw %d spmm spans, want 1", c)
	}
	if gc, _ := StageTotals(StageSpMM); gc != 3 {
		t.Fatalf("global saw %d spmm spans, want all 3", gc)
	}
}

func TestRecorderCountersAndReset(t *testing.T) {
	Reset()
	rec := NewRecorder()
	rec.Inc(CounterMulCalls)
	rec.Inc(CounterMulCalls)
	Inc(CounterMulCalls) // global-only event
	if got := rec.CounterValue(CounterMulCalls); got != 2 {
		t.Fatalf("recorder counter = %d, want 2", got)
	}
	if got := CounterValue(CounterMulCalls); got != 3 {
		t.Fatalf("global counter = %d, want 3", got)
	}
	rec.Reset()
	if got := rec.CounterValue(CounterMulCalls); got != 0 {
		t.Fatalf("recorder counter after Reset = %d, want 0", got)
	}
	if got := CounterValue(CounterMulCalls); got != 3 {
		t.Fatalf("recorder Reset changed the global counter to %d", got)
	}
}

// Disabled recording must make recorder probes inert too, and spans
// begun on a recorder must be safe from concurrent goroutines.
func TestRecorderDisabledAndConcurrent(t *testing.T) {
	Reset()
	rec := NewRecorder()
	Disable()
	sp := rec.Begin(StageUpdate)
	sp.End()
	rec.Inc(CounterSpMMCalls)
	Enable()
	if c, _ := rec.StageTotals(StageUpdate); c != 0 {
		t.Fatalf("disabled recorder recorded %d spans", c)
	}
	if rec.CounterValue(CounterSpMMCalls) != 0 {
		t.Fatal("disabled recorder recorded a counter event")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := rec.Begin(StageUpdate)
				s.End()
				rec.Inc(CounterSpMMCalls)
			}
		}()
	}
	wg.Wait()
	if c, _ := rec.StageTotals(StageUpdate); c != 400 {
		t.Fatalf("concurrent recorder spans = %d, want 400", c)
	}
	if got := rec.CounterValue(CounterSpMMCalls); got != 400 {
		t.Fatalf("concurrent recorder counter = %d, want 400", got)
	}
}

// DoWith must attribute the region to the given sink and still honour
// the global disable switch.
func TestDoWith(t *testing.T) {
	Reset()
	rec := NewRecorder()
	ran := false
	DoWith(rec, StageFused, func() { ran = true })
	if !ran {
		t.Fatal("DoWith did not run the region")
	}
	if c, _ := rec.StageTotals(StageFused); c != 1 {
		t.Fatalf("DoWith recorded %d fused spans on the recorder, want 1", c)
	}
	if gc, _ := StageTotals(StageFused); gc != 1 {
		t.Fatalf("DoWith recorded %d fused spans globally, want 1", gc)
	}
	DoWith(Nop, StageFused, func() {})
	if gc, _ := StageTotals(StageFused); gc != 1 {
		t.Fatalf("NopSink DoWith leaked a span into the global totals (%d)", gc)
	}
}
