package bench

import (
	"strings"
	"testing"
	"time"
)

func TestMeasureStatistics(t *testing.T) {
	calls := 0
	tm := Measure(5, 2, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls != 7 {
		t.Fatalf("calls = %d, want 5 reps + 2 warmup", calls)
	}
	if tm.Reps != 5 {
		t.Fatalf("Reps = %d", tm.Reps)
	}
	if tm.Mean < 500*time.Microsecond {
		t.Fatalf("mean %v implausibly small for a 1ms body", tm.Mean)
	}
	if tm.Std < 0 {
		t.Fatalf("negative std %v", tm.Std)
	}
}

func TestMeasureSingleRepHasZeroStd(t *testing.T) {
	tm := Measure(1, 0, func() {})
	if tm.Std != 0 {
		t.Fatalf("std = %v for a single rep", tm.Std)
	}
}

func TestMeasureClampsReps(t *testing.T) {
	calls := 0
	tm := Measure(0, 0, func() { calls++ })
	if calls != 1 || tm.Reps != 1 {
		t.Fatalf("reps=0 should clamp to 1 (calls=%d)", calls)
	}
}

func TestTimingString(t *testing.T) {
	tm := Timing{Reps: 3, Mean: 12340 * time.Microsecond, Std: 400 * time.Microsecond}
	s := tm.String()
	if !strings.Contains(s, "0.0123") || !strings.Contains(s, "±") {
		t.Fatalf("Timing.String() = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"a", "long-header", "c"}}
	tb.AddRow("x", "1", "yy")
	tb.AddRow("wider-cell", "2", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "long-header") {
		t.Fatalf("header row %q", lines[0])
	}
	if !strings.Contains(lines[2], "x") || !strings.Contains(lines[3], "wider-cell") {
		t.Fatalf("data rows wrong:\n%s", out)
	}
}

func TestMiB(t *testing.T) {
	if got := MiB(1 << 20); got != "1.00" {
		t.Fatalf("MiB(1MiB) = %q", got)
	}
	if got := MiB(0); got != "0.00" {
		t.Fatalf("MiB(0) = %q", got)
	}
}

func TestRegistryCompleteAndConsistent(t *testing.T) {
	if len(Registry) != 8 {
		t.Fatalf("registry has %d datasets, the paper has 8", len(Registry))
	}
	seen := map[string]bool{}
	for _, d := range Registry {
		if d.Name == "" || seen[d.Name] {
			t.Fatalf("bad or duplicate name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Generate == nil || d.Scale < 1 {
			t.Fatalf("%s: incomplete entry", d.Name)
		}
		p := d.Paper
		if p.Nodes <= 0 || p.Edges <= 0 || p.AvgDegree <= 0 || p.RatioAlpha0 <= 0 {
			t.Fatalf("%s: missing paper reference values", d.Name)
		}
	}
}

func TestRegistryGeneratorsScaleAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full analogs")
	}
	for _, d := range Registry {
		if d.Name == "collab" || d.Name == "copapersdblp" || d.Name == "copapersciteseer" || d.Name == "ogbn-proteins" {
			continue // too slow for unit tests; the benchmark tools generate them
		}
		a := d.Generate(1)
		wantNodes := d.Paper.Nodes / d.Scale
		if a.Rows < wantNodes*9/10 || a.Rows > wantNodes*11/10 {
			t.Fatalf("%s: %d nodes, want ≈ %d", d.Name, a.Rows, wantNodes)
		}
		if !a.IsSymmetric() || !a.IsBinary() {
			t.Fatalf("%s: generator contract violated", d.Name)
		}
		deg := float64(a.NNZ()) / float64(a.Rows)
		if deg < d.Paper.AvgDegree*0.6 || deg > d.Paper.AvgDegree*1.4 {
			t.Fatalf("%s: avg degree %.1f, paper %.1f", d.Name, deg, d.Paper.AvgDegree)
		}
	}
}

func TestGetAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names length mismatch")
	}
	d, err := Get("cora")
	if err != nil || d.Name != "cora" {
		t.Fatalf("Get(cora) = %v, %v", d.Name, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMiniRegistry(t *testing.T) {
	minis := MiniRegistry(16)
	if len(minis) != len(Registry) {
		t.Fatal("mini registry size mismatch")
	}
	m, err := Get("cora")
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	a := minis[0].Generate(1) // cora-mini
	if a.Rows > 2708 {
		t.Fatalf("mini graph not scaled down: %d rows", a.Rows)
	}
	if !a.IsSymmetric() || !a.IsBinary() {
		t.Fatal("mini generator contract violated")
	}
	if !strings.HasSuffix(minis[0].Name, "-mini") {
		t.Fatalf("mini name %q", minis[0].Name)
	}
}

func TestMeasureInterleaved(t *testing.T) {
	calls := [3]int{}
	tms := MeasureInterleaved(4, 2,
		func() { calls[0]++ },
		func() { calls[1]++ },
		func() { calls[2]++ })
	if len(tms) != 3 {
		t.Fatalf("got %d timings, want 3", len(tms))
	}
	for k, c := range calls {
		if c != 6 {
			t.Fatalf("candidate %d ran %d times, want 4 reps + 2 warmup", k, c)
		}
		if tms[k].Reps != 4 {
			t.Fatalf("candidate %d Reps = %d", k, tms[k].Reps)
		}
	}
	if MeasureInterleaved(3, 1) != nil {
		t.Fatal("no candidates must yield nil")
	}
	// Every candidate is timed exactly once per round even when the
	// rotation wraps (reps > len(fs)).
	calls = [3]int{}
	MeasureInterleaved(7, 0, func() { calls[0]++ }, func() { calls[1]++ }, func() { calls[2]++ })
	if calls != [3]int{7, 7, 7} {
		t.Fatalf("unequal rounds: %v", calls)
	}
}
