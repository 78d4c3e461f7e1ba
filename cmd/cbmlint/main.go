// Command cbmlint runs the repository's custom static-analysis suite
// (internal/lint) over the given package patterns — a multichecker in
// the spirit of golang.org/x/tools/go/analysis/multichecker, built on
// the standard library only.
//
//	cbmlint ./...                 # whole module (what ci.sh runs)
//	cbmlint -run hotalloc ./internal/kernels/...
//	cbmlint -json ./...           # machine-readable report on stdout
//	cbmlint -list
//
// It accepts the same package patterns as go vet, so CI can point both
// tools at one shared pattern set. Diagnostics print as
// file:line:col: [analyzer] message, or with -json as a JSON array of
// {file, line, col, analyzer, message} objects ([] when clean) for
// stable, greppable CI reports.
//
// Exit status:
//
//	0  no diagnostics
//	1  one or more diagnostics reported
//	2  usage error, unknown analyzer, or package load/type-check failure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

// jsonDiagnostic is one -json report entry. The field set is the
// contract ci.sh (and any other tooling) consumes; extend, don't
// rename.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		runList = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		jsonOut = flag.Bool("json", false, "print diagnostics as a JSON array on stdout ([] when clean)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			outf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *runList != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*runList, ",") {
			a := lint.Get(strings.TrimSpace(name))
			if a == nil {
				fatalf("unknown analyzer %q (see -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fatalf("%v", err)
	}

	cwd, _ := os.Getwd()
	report := []jsonDiagnostic{} // non-nil so -json prints [] when clean
	for _, pkg := range pkgs {
		var diags []lint.Diagnostic
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			diags = append(diags, lint.RunAnalyzer(a, pkg)...)
		}
		sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		for _, d := range diags {
			pos := d.Position(pkg.Fset)
			name := pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			report = append(report, jsonDiagnostic{
				File:     name,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if !*jsonOut {
				outf("%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("writing JSON report: %v", err)
		}
	}
	if len(report) > 0 {
		if !*jsonOut {
			outf("cbmlint: %d diagnostic(s)\n", len(report))
		}
		os.Exit(1)
	}
}

// outf writes to stdout and exits non-zero when the write fails, so a
// broken pipe cannot silently swallow diagnostics.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fatalf("writing output: %v", err)
	}
}

func fatalf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "cbmlint: "+format+"\n", args...)
	os.Exit(2)
}
