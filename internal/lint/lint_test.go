package lint

import (
	"strings"
	"testing"
)

// One golden test per analyzer. Each fixture contains both positive
// cases (every `// want` line must fire — deleting a rule fails the
// test) and negative cases (any extra diagnostic fails the test — the
// rules cannot over-trigger).

func TestHotAllocGolden(t *testing.T)         { RunGolden(t, HotAlloc) }
func TestShapePanicGolden(t *testing.T)       { RunGolden(t, ShapePanic) }
func TestGoroutineCaptureGolden(t *testing.T) { RunGolden(t, GoroutineCapture) }
func TestFloatMixGolden(t *testing.T)         { RunGolden(t, FloatMix) }
func TestErrIgnoreGolden(t *testing.T)        { RunGolden(t, ErrIgnore) }
func TestArenaLeaseGolden(t *testing.T)       { RunGolden(t, ArenaLease) }
func TestCtxPropGolden(t *testing.T)          { RunGolden(t, CtxProp) }
func TestDeterminismGolden(t *testing.T)      { RunGolden(t, Determinism) }

func TestAllListsEveryAnalyzerOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q listed twice", a.Name)
		}
		seen[a.Name] = true
		if Get(a.Name) != a {
			t.Errorf("Get(%q) did not return the registered analyzer", a.Name)
		}
	}
	if Get("no-such-analyzer") != nil {
		t.Error("Get of an unknown name should return nil")
	}
}

func TestErrIgnoreScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sparse":  true,
		"repro/internal/cbm":     true,
		"repro/cmd/cbmbench":     true,
		"repro/cmd/verify":       true,
		"repro/internal/kernels": false,
		"repro/internal/bench":   false,
	} {
		if got := ErrIgnore.Scope(path); got != want {
			t.Errorf("ErrIgnore.Scope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestDeterminismScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/cbm":      true,
		"repro/internal/kernels":  true,
		"repro/internal/gnn":      true,
		"repro/internal/exec":     true,
		"repro/internal/parallel": true,
		"repro/internal/clock":    false, // the clock seam wraps time itself
		"repro/internal/bench":    false, // measurement code reads real time
		"repro/cmd/gcnserve":      false,
	} {
		if got := Determinism.Scope(path); got != want {
			t.Errorf("Determinism.Scope(%q) = %v, want %v", path, got, want)
		}
	}
}

// The suite must be clean on its own module: this is the same gate
// ci.sh enforces via cmd/cbmlint, kept here so `go test ./...` catches
// a violation even when someone skips the shell script.
func TestModuleIsCleanUnderSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load([]string{"repro/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	var report []string
	for _, pkg := range pkgs {
		for _, a := range All() {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			for _, d := range RunAnalyzer(a, pkg) {
				pos := d.Position(pkg.Fset)
				report = append(report, pos.String()+": ["+d.Analyzer+"] "+d.Message)
			}
		}
	}
	if len(report) > 0 {
		t.Errorf("cbmlint diagnostics on the module:\n%s", strings.Join(report, "\n"))
	}
}
