package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsTotals(t *testing.T) {
	Reset()
	sp := Begin(StageSpMM)
	time.Sleep(time.Millisecond)
	sp.End()
	count, nanos := StageTotals(StageSpMM)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if nanos < int64(500*time.Microsecond) {
		t.Fatalf("nanos = %d, implausibly small for a 1ms span", nanos)
	}
	if c, n := StageTotals(StageUpdate); c != 0 || n != 0 {
		t.Fatalf("unrelated stage touched: count=%d nanos=%d", c, n)
	}
}

func TestCountersAndDisable(t *testing.T) {
	Reset()
	defer Enable()
	Inc(CounterMulCalls)
	Add(CounterMulCalls, 2)
	if v := CounterValue(CounterMulCalls); v != 3 {
		t.Fatalf("counter = %d, want 3", v)
	}
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
	Inc(CounterMulCalls)
	sp := Begin(StageUpdate)
	sp.End()
	if v := CounterValue(CounterMulCalls); v != 3 {
		t.Fatalf("disabled counter moved: %d", v)
	}
	if c, _ := StageTotals(StageUpdate); c != 0 {
		t.Fatalf("disabled span recorded: count=%d", c)
	}
	// A span begun while disabled stays inert even if recording is
	// re-enabled before End.
	sp = Begin(StageUpdate)
	Enable()
	sp.End()
	if c, _ := StageTotals(StageUpdate); c != 0 {
		t.Fatalf("inert span recorded after re-enable: count=%d", c)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	Reset()
	Inc(CounterSpMMCalls)
	sp := Begin(StageCompress)
	sp.End()
	snap := TakeSnapshot()
	if len(snap.Stages) != len(Stages()) {
		t.Fatalf("snapshot has %d stages, want %d", len(snap.Stages), len(Stages()))
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON: %s", buf.String())
	}
}

func TestConcurrentSpansAndCounters(t *testing.T) {
	Reset()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := Begin(StageUpdate)
				Inc(CounterMulCalls)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if count, _ := StageTotals(StageUpdate); count != goroutines*iters {
		t.Fatalf("span count = %d, want %d", count, goroutines*iters)
	}
	if v := CounterValue(CounterMulCalls); v != goroutines*iters {
		t.Fatalf("counter = %d, want %d", v, goroutines*iters)
	}
}

func TestNamesAreStableAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Stages() {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate stage name %q", name)
		}
		seen[name] = true
	}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if got := Stage(200).String(); got != "Stage(200)" {
		t.Fatalf("out-of-range stage prints %q", got)
	}
	if got := Counter(200).String(); got != "Counter(200)" {
		t.Fatalf("out-of-range counter prints %q", got)
	}
}
