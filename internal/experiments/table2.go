package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cbm"
)

// Table2Row is one (dataset, α) compression measurement (paper
// Table II).
type Table2Row struct {
	Name      string
	Alpha     int
	BuildTime bench.Timing
	// Components counts the independent tree subproblems the build
	// solved (cbm.BuildStats.Components), its unit of parallelism.
	Components int
	CSRBytes   int64
	CBMBytes   int64
	Ratio      float64
	PaperRatio float64
}

// Table2 measures CBM build time and compression ratio at α = 0 and
// α = 32, the two corners of the paper's Table II. The build timing
// includes all three phases (candidate graph, tree, delta extraction),
// matching the paper's "time needed to build our format".
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.Defaults()
	ds, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, d := range ds {
		a := d.Generate(cfg.Seed)
		for _, alpha := range []int{0, 32} {
			alpha := alpha
			var m *cbm.Matrix
			var stats cbm.BuildStats
			timing := bench.Measure(cfg.Reps, cfg.Warmup, func() {
				var err2 error
				m, stats, err2 = cbm.Compress(a, cbm.Options{Alpha: alpha, Threads: cfg.Threads})
				if err2 != nil {
					panic(err2)
				}
			})
			paperRatio := d.Paper.RatioAlpha0
			if alpha == 32 {
				paperRatio = d.Paper.RatioAlpha32
			}
			rows = append(rows, Table2Row{
				Name:       d.Name,
				Alpha:      alpha,
				BuildTime:  timing,
				Components: stats.Components,
				CSRBytes:   a.FootprintBytes(),
				CBMBytes:   m.FootprintBytes(),
				Ratio:      float64(a.FootprintBytes()) / float64(m.FootprintBytes()),
				PaperRatio: paperRatio,
			})
		}
	}
	return rows, nil
}

// WriteTable2 renders the rows in the paper's Table-II layout.
func WriteTable2(w io.Writer, rows []Table2Row) {
	t := &bench.Table{Header: []string{
		"Graph", "Alpha", "Time[s]", "comps", "S_CSR[MiB]", "S_CBM[MiB]", "Ratio", "paperRatio",
	}}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Alpha),
			r.BuildTime.String(),
			fmt.Sprintf("%d", r.Components),
			bench.MiB(r.CSRBytes),
			bench.MiB(r.CBMBytes),
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%.2f", r.PaperRatio),
		)
	}
	fmt.Fprintln(w, "Table II — CBM compression analysis (α = 0 and α = 32)")
	fmt.Fprint(w, t.String())
}
