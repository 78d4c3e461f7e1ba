// Package experiments reproduces every table and figure of the paper's
// evaluation section on the synthetic dataset analogs. Each experiment
// has a Run function returning a structured result plus a formatter
// that renders the paper-style table; cmd/cbmbench drives them and
// EXPERIMENTS.md records measured-vs-paper shapes.
package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/parallel"
)

// Config carries the knobs shared by all experiments.
type Config struct {
	// Seed drives every generator and random operand matrix.
	Seed uint64
	// Threads is the parallel worker count (the paper's "16 cores"
	// column); < 1 selects GOMAXPROCS.
	Threads int
	// Cols is the number of columns of the dense operand X. The paper
	// uses 500; the default scales it to 128 to fit the harness budget
	// (pass -cols 500 to cbmbench for the full-width run).
	Cols int
	// Reps and Warmup control timing repetitions (paper: 250 reps).
	Reps, Warmup int
	// Datasets restricts the run to a subset of registry names; empty
	// means all eight.
	Datasets []string
	// Alphas is the α sweep for Fig. 2; empty selects the paper's
	// {0, 1, 2, 4, 8, 16, 32}.
	Alphas []int
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Threads < 1 {
		c.Threads = parallel.DefaultThreads()
	}
	if c.Cols == 0 {
		c.Cols = 128
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.Warmup == 0 {
		c.Warmup = 1
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []int{0, 1, 2, 4, 8, 16, 32}
	}
	return c
}

// datasets resolves the configured dataset subset.
func (c Config) datasets() ([]bench.Dataset, error) {
	if len(c.Datasets) == 0 {
		return bench.Registry, nil
	}
	out := make([]bench.Dataset, 0, len(c.Datasets))
	for _, name := range c.Datasets {
		d, err := bench.Get(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}
