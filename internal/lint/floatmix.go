package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatMix polices precision discipline inside loops. The kernels are
// single-precision (matching the paper's MKL configuration) and the
// oracles are double-precision by design; what must never happen is a
// loop that silently hops between the two:
//
//  1. Narrowing accumulation: `acc += float32(f64expr)` with a
//     loop-invariant accumulator rounds the running sum every
//     iteration. Accumulate in float64 and convert once after the
//     loop. (Element-wise updates like `dst[i] -= float32(x)`, where
//     the target is indexed by the loop variable, are one rounding per
//     element and are fine.)
//  2. Late widening: `float64(a*b)` where a and b are float32 performs
//     the arithmetic in single precision and only then widens — the
//     widening is illusory, the rounding already happened. Convert the
//     operands, not the result: `float64(a)*float64(b)`.
var FloatMix = &Analyzer{
	Name: "floatmix",
	Doc: "no float32↔float64 conversions inside accumulation loops: " +
		"accumulate in one precision, convert operands before arithmetic",
	Run: runFloatMix,
}

func runFloatMix(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				floatMixInLoop(p, n.Body, forInitVars(p, n))
				return false
			case *ast.RangeStmt:
				floatMixInLoop(p, n.Body, rangeVars(p, n))
				return false
			}
			return true
		})
	}
}

// floatMixInLoop applies both rules to one loop body. Nested loops
// recurse with the accumulated control-variable set, so an element-wise
// update indexed by *any* enclosing loop's variable is recognized.
func floatMixInLoop(p *Pass, body *ast.BlockStmt, loopVars []types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			vars := append(loopVars[:len(loopVars):len(loopVars)], forInitVars(p, n)...)
			floatMixInLoop(p, n.Body, vars)
			return false
		case *ast.RangeStmt:
			vars := append(loopVars[:len(loopVars):len(loopVars)], rangeVars(p, n)...)
			floatMixInLoop(p, n.Body, vars)
			return false
		case *ast.AssignStmt:
			checkAccumulation(p, n, loopVars)
		case *ast.CallExpr:
			checkLateWidening(p, n)
		}
		return true
	})
}

// checkAccumulation implements rule 1: compound assignments to a
// float32 accumulator must not narrow a float64 value per iteration.
func checkAccumulation(p *Pass, as *ast.AssignStmt, loopVars []types.Object) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	if !isBasicFloat(p.TypeOf(as.Lhs[0]), types.Float32) {
		return
	}
	// An lvalue indexed by the loop variable is an element-wise update,
	// not a cross-iteration accumulator.
	if mentionsAny(p, as.Lhs[0], loopVars) {
		return
	}
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isConversion(p, call) || len(call.Args) != 1 {
			return true
		}
		if isBasicFloat(p.TypeOf(call), types.Float32) && isBasicFloat(p.TypeOf(call.Args[0]), types.Float64) {
			p.Reportf(call.Pos(),
				"floatmix: float64 value narrowed to float32 inside accumulation of %s; accumulate in float64 and convert once after the loop",
				exprString(as.Lhs[0]))
		}
		return true
	})
}

// checkLateWidening implements rule 2: float64(<float32 arithmetic>)
// widens after the single-precision rounding already happened.
func checkLateWidening(p *Pass, call *ast.CallExpr) {
	if !isConversion(p, call) || len(call.Args) != 1 {
		return
	}
	if !isBasicFloat(p.TypeOf(call), types.Float64) {
		return
	}
	bin, ok := ast.Unparen(call.Args[0]).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	if isBasicFloat(p.TypeOf(bin), types.Float32) {
		p.Reportf(call.Pos(),
			"floatmix: float32 arithmetic %q widened to float64 after rounding; convert the operands instead (e.g. float64(a)-float64(b))",
			exprString(bin))
	}
}

// mentionsAny reports whether e references any of the given objects.
func mentionsAny(p *Pass, e ast.Expr, objs []types.Object) bool {
	if len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			for _, o := range objs {
				if obj == o {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
