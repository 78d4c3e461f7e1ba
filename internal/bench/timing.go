// Package bench provides the measurement harness and dataset registry
// behind every table and figure reproduction: repeated timing with mean
// and standard deviation (the paper averages over 250 runs and reports
// ±σ), plain-text table rendering, and the synthetic analogs of the
// paper's eight datasets together with the published reference numbers
// they are compared against in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Timing summarizes repeated measurements of one operation.
type Timing struct {
	Reps int
	Mean time.Duration
	Std  time.Duration
}

// Seconds returns the mean in seconds.
func (t Timing) Seconds() float64 { return t.Mean.Seconds() }

// String renders "0.0123 (± 0.0004)" in seconds, the paper's format.
func (t Timing) String() string {
	return fmt.Sprintf("%.4f (± %.4f)", t.Mean.Seconds(), t.Std.Seconds())
}

// Measure runs f reps times (after warmup warm runs) and returns the
// mean and standard deviation of the wall-clock durations.
func Measure(reps, warm int, f func()) Timing {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warm; i++ {
		f()
	}
	samples := make([]float64, reps)
	for i := 0; i < reps; i++ {
		samples[i] = timeOne(f)
	}
	return summarize(samples)
}

// MeasurePaired measures two alternatives under identical conditions:
// each round times one run of f and one of g, alternating which goes
// first, so slow drift (thermal throttling, background load) biases
// neither side. Measuring them with two separate Measure calls instead
// lets minutes-apart machine state masquerade as a kernel difference —
// exactly the artifact a plan-vs-plan comparison must not have.
func MeasurePaired(reps, warm int, f, g func()) (Timing, Timing) {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warm; i++ {
		f()
		g()
	}
	fs := make([]float64, reps)
	gs := make([]float64, reps)
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			fs[i] = timeOne(f)
			gs[i] = timeOne(g)
		} else {
			gs[i] = timeOne(g)
			fs[i] = timeOne(f)
		}
	}
	return summarize(fs), summarize(gs)
}

// MeasureInterleaved generalizes MeasurePaired to N alternatives: each
// round times one run of every candidate, rotating which starts the
// round, so machine drift is shared evenly across all of them. This is
// the measurement the bench report's forced-plan timings use — timing
// the plans with separate Measure calls would let minutes-apart
// machine state masquerade as a plan difference.
func MeasureInterleaved(reps, warm int, fs ...func()) []Timing {
	if len(fs) == 0 {
		return nil
	}
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warm; i++ {
		for _, f := range fs {
			f()
		}
	}
	samples := make([][]float64, len(fs))
	for k := range samples {
		samples[k] = make([]float64, reps)
	}
	for i := 0; i < reps; i++ {
		for j := range fs {
			k := (i + j) % len(fs)
			samples[k][i] = timeOne(fs[k])
		}
	}
	out := make([]Timing, len(fs))
	for k := range out {
		out[k] = summarize(samples[k])
	}
	return out
}

func timeOne(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func summarize(samples []float64) Timing {
	reps := len(samples)
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(reps)
	varsum := 0.0
	for _, s := range samples {
		d := s - mean
		varsum += d * d
	}
	std := 0.0
	if reps > 1 {
		std = math.Sqrt(varsum / float64(reps-1))
	}
	return Timing{
		Reps: reps,
		Mean: time.Duration(mean * float64(time.Second)),
		Std:  time.Duration(std * float64(time.Second)),
	}
}

// Summarize reduces raw samples (seconds) to a Timing — the mean ± σ
// reduction Measure applies, exported for callers that collect their
// own samples (e.g. per-request latencies under concurrency).
func Summarize(samples []float64) Timing { return summarize(samples) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples using
// nearest-rank on a sorted copy — the estimator behind the serving
// p50/p99 latency numbers. It panics on an empty sample set, because
// a latency report silently built from nothing is a lie.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		panic(fmt.Sprintf("bench: Quantile(%.3f) of 0 samples", q))
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("bench: Quantile q=%v outside [0,1]", q))
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Table renders rows of cells as a fixed-width text table with a
// header row and a separator line.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// MiB formats a byte count in MiB with two decimals, as the paper's
// memory columns do.
func MiB(bytes int64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/(1<<20))
}
