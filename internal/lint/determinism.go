package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the repo-wide bitwise-determinism invariant
// (ROADMAP "Recent") in the hot-path packages: every multiply, plan
// and serving path must produce bit-identical output run to run, or
// the oracle comparisons and paired benchmarks stop meaning anything.
// Three sources of run-to-run variation are banned at the source
// level:
//
//   - Ranging over a map while accumulating floats: Go randomizes map
//     iteration order, and float addition does not commute in
//     rounding, so the sum's low bits change per run.
//   - Ranging over a map while appending to a slice declared outside
//     the loop: the output order is random. Exempt when the function
//     visibly sorts the slice afterwards (sort.* / slices.* call
//     naming it) — collect-then-sort is the sanctioned idiom.
//   - Direct `time.Now`/`time.Since`/`time.After`/... and `math/rand`
//     use: wall-clock and global randomness make behavior
//     (and benchmarks) unreproducible; internal/clock and
//     internal/xrand are the injectable, seedable seams.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "hot-path packages must not iterate maps into float accumulations or " +
		"output slices (unless sorted), and must use internal/clock / internal/xrand " +
		"instead of time.Now / math/rand",
	Scope: determinismScope,
	Run:   runDeterminism,
}

// determinismScope limits the analyzer to the packages whose outputs
// are asserted bitwise-identical by the oracle and CI.
func determinismScope(pkgPath string) bool {
	switch pkgPath {
	case "repro/internal/cbm", "repro/internal/kernels", "repro/internal/gnn",
		"repro/internal/exec", "repro/internal/parallel":
		return true
	}
	return false
}

// bannedTimeFuncs are the time-package entry points that read the wall
// clock or schedule against it. Types (time.Time, time.Duration) and
// constructors from components remain fine.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeams(p, fd.Body)
			checkMapRanges(p, fd)
		}
	}
}

// checkSeams flags direct wall-clock and global-randomness calls.
func checkSeams(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "time":
			if bannedTimeFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(), "determinism: direct time.%s in a hot-path package; inject internal/clock.Clock instead", sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			p.Reportf(sel.Pos(), "determinism: %s.%s uses global randomness; use the seedable internal/xrand instead", id.Name, sel.Sel.Name)
		}
		return true
	})
}

// checkMapRanges flags map-range loops whose bodies leak iteration
// order into results.
func checkMapRanges(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(p, fd, rng)
		return true
	})
}

func checkMapRangeBody(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := assignTargetObj(p, lhs)
			if obj == nil || !declaredOutside(obj, rng) {
				continue // loop-local: order cannot leak out
			}
			// Float accumulation: x += e, x -= e, x *= e, x /= e, or
			// x = x <op> e.
			if isFloatType(obj.Type()) && accumulates(p, as, i, obj) {
				p.Reportf(as.Pos(), "determinism: float accumulation over map iteration order; iterate sorted keys instead")
				continue
			}
			// Output append: x = append(x, ...).
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && builtinName(p, call) == "append" {
					if !sortedAfter(p, fd, obj) {
						p.Reportf(as.Pos(), "determinism: append to %s in map iteration order; sort it afterwards or iterate sorted keys", obj.Name())
					}
				}
			}
		}
		return true
	})
}

// assignTargetObj resolves a plain-identifier assignment target.
func assignTargetObj(p *Pass, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// declaredOutside reports whether obj's declaration precedes the range
// statement (so writes inside the loop survive it).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float32 || b.Kind() == types.Float64)
}

// accumulates reports whether assignment i reads the target as part of
// computing it: compound tokens, or `x = x <op> e` self-reference.
func accumulates(p *Pass, as *ast.AssignStmt, i int, obj types.Object) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if i >= len(as.Rhs) {
			return false
		}
		found := false
		ast.Inspect(as.Rhs[i], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// sortedAfter reports whether the function later passes obj to a
// sort.*/slices.* call — the collect-then-sort exemption.
func sortedAfter(p *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok || (pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && p.Info.Uses[aid] == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				sorted = true
				break
			}
		}
		return !sorted
	})
	return sorted
}
