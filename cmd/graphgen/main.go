// Command graphgen emits synthetic graphs as edge-list files, either a
// registered dataset analog or a raw generator with explicit
// parameters. The output feeds cbmcompress -in or external tooling.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "registered dataset analog (see cbmbench -list)")
		model   = flag.String("model", "", "raw generator: er | ws | hk | sbm | hub | copy")
		n       = flag.Int("n", 1000, "node count (raw generators)")
		deg     = flag.Float64("deg", 8, "target average degree (er)")
		k       = flag.Int("k", 6, "lattice degree (ws) / attachments (hk, copy)")
		p       = flag.Float64("p", 0.3, "model probability (ws rewiring, hk triads, sbm in-prob, hub copy-prob, copy beta)")
		group   = flag.Int("group", 30, "group size (sbm) / regulars per block (hub)")
		hubs    = flag.Int("hubs", 50, "hubs per block (hub)")
		noise   = flag.Float64("noise", 0.5, "noise degree (sbm, hub)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "edgelist", "output format: edgelist | mtx (MatrixMarket)")
	)
	flag.Parse()

	var a *sparse.CSR
	switch {
	case *dataset != "":
		d, err := bench.Get(*dataset)
		if err != nil {
			fatal(err)
		}
		a = d.Generate(*seed)
	case *model != "":
		switch *model {
		case "er":
			a = synth.ErdosRenyi(*n, *deg, *seed)
		case "ws":
			a = synth.WattsStrogatz(*n, *k, *p, *seed)
		case "hk":
			a = synth.HolmeKim(*n, *k, *p, *seed)
		case "sbm":
			a = synth.SBMGroups(*n, *group, *p, *noise, *seed)
		case "hub":
			a = synth.HubTemplate(*n, *group, *hubs, *p, 0.05, *noise, *seed)
		case "copy":
			a = synth.Copying(*n, *k, *p, *seed)
		default:
			fatal(fmt.Errorf("unknown -model %q", *model))
		}
	default:
		fatal(fmt.Errorf("pass -dataset <name> or -model <er|ws|hk|sbm|hub|copy>"))
	}

	w := os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	switch *format {
	case "edgelist":
		if err := sparse.WriteEdgeList(w, a); err != nil {
			fatal(err)
		}
	case "mtx":
		if err := sparse.WriteMatrixMarket(w, a); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -format %q", *format))
	}
	if f != nil {
		// Close errors matter here: the edge list may still be buffered.
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	_, _ = fmt.Fprintf(os.Stderr, "graphgen: %d nodes, %d directed entries (avg degree %.1f)\n",
		a.Rows, a.NNZ(), float64(a.NNZ())/float64(a.Rows))
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
