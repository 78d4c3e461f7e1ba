package cbm

import (
	"repro/internal/bench"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// TuneResult reports one α's measured behaviour during AutoTune.
type TuneResult struct {
	Alpha int
	// Seconds is the mean wall-clock time of one multiplication over
	// the timing reps; Std is the ±σ over the same reps, so callers can
	// tell a real winner from scheduler jitter.
	Seconds float64
	Std     float64
	// SpMMSeconds and UpdateSeconds split the mean multiplication time
	// into the two pipeline stages (Sec. V-A); the CSR plan reports
	// under SpMMSeconds (it is all SpMM). Attribution goes
	// through a per-tune obs.Recorder scoped to this measurement's
	// exec.Ctx, so concurrent multiplies elsewhere in the process cannot
	// leak into the split (reading global obs.StageTotals deltas here
	// used to double-count them). All are 0 when obs is disabled.
	SpMMSeconds   float64
	UpdateSeconds float64
	// Plan is the execution plan MulTo picks for this α at the
	// measured thread count and operand width (PlanFor).
	Plan string
	// Ratio is the CSR/CBM footprint compression ratio at this α.
	Ratio float64
}

// AutoTune picks the α that minimizes the measured AX time for this
// matrix: it reuses one candidate pass (Builder) across the sweep,
// measures reps multiplications per α through bench.Measure (one
// warmup run, mean ± σ) with a random cols-wide operand, and returns
// the winner plus the whole frontier. A single time.Since sample per α
// proved jitter-prone; the repeated measurement plus the recorded Std
// and per-stage split make the decision auditable. The paper observes
// that the best sequential α is fairly stable (≈ 4) but the parallel
// optimum is graph-dependent — this helper is the programmatic version
// of that tuning step.
func AutoTune(b *Builder, alphas []int, cols, reps, threads int, seed uint64) (best *Matrix, bestAlpha int, frontier []TuneResult, err error) {
	if len(alphas) == 0 {
		alphas = []int{0, 1, 2, 4, 8, 16, 32}
	}
	if cols <= 0 {
		cols = 32
	}
	if reps <= 0 {
		reps = 3
	}
	const warmup = 1
	rng := xrand.New(seed)
	n := b.a.Rows
	x := dense.New(n, cols)
	rng.FillUniform(x.Data)
	c := dense.New(n, cols)
	csrBytes := b.a.FootprintBytes()

	// Stage attribution is scoped: the measured multiplies run under a
	// context whose sink is this Recorder, so only their spans land in
	// the split. Warmup runs also record spans, so the divisor is every
	// call inside the region.
	rec := obs.NewRecorder()
	ctx := exec.NewWithSink(threads, rec)

	bestTime := -1.0
	for _, alpha := range alphas {
		m, _, cerr := b.Compress(alpha, false)
		if cerr != nil {
			return nil, 0, nil, cerr
		}
		rec.Reset()
		tm := bench.Measure(reps, warmup, func() { m.MulToCtx(ctx, c, x) })
		calls := float64(reps + warmup)
		secs := tm.Seconds()
		frontier = append(frontier, TuneResult{
			Alpha:         alpha,
			Seconds:       secs,
			Std:           tm.Std.Seconds(),
			SpMMSeconds:   rec.StageSeconds(obs.StageSpMM) / calls,
			UpdateSeconds: rec.StageSeconds(obs.StageUpdate) / calls,
			Plan:          m.PlanFor(ctx.Threads(), cols).String(),
			Ratio:         float64(csrBytes) / float64(m.FootprintBytes()),
		})
		if bestTime < 0 || secs < bestTime {
			bestTime = secs
			best = m
			bestAlpha = alpha
		}
	}
	return best, bestAlpha, frontier, nil
}
