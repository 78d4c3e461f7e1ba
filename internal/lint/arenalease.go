package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ArenaLease enforces the exec.Arena ownership contract (DESIGN.md)
// at compile time: every Arena.Borrow/BorrowUninit result must be
// released exactly once on every path out of the borrowing function —
// including early returns and explicit panic exits — never released
// twice, never used after release, and never released into a different
// arena than it was borrowed from. The runtime already panics on
// double/foreign release and the Engine leak-checks slots between
// tenants, but those fire in production; this analyzer fires in CI.
//
// The analysis is an intraprocedural abstract interpretation over the
// package CFG (cfg.go): the dataflow fact is a bounded set of "worlds",
// each mapping local variables to lease objects with a state
// (leased/released/escaped) and the arena they came from. Worlds split
// at branches and the analysis refines them on nil-checks of tracked
// variables (Borrow never returns nil, so `if m != nil` is decided in
// a world where m holds a lease) and on repeated pure conditions (the
// `if i != last { dst = ctx.Borrow(...) } ... if i != last { keep }`
// correlation of the layer ping-pong in gnn.inferStackTo). Aliasing is
// tracked through plain assignments, so the loop-carried wide buffer
// of the batched forward pass (`wideH = wideS`) keeps its obligation
// across iterations.
//
// Exemptions, by design:
//
//   - A lease that escapes — returned to the caller, stored into a
//     struct/slice/map/channel, address taken, or captured by a
//     closure — transfers ownership somewhere this analysis cannot
//     see, and carries no further obligation (the runtime leak check
//     still owns those paths).
//   - `defer ctx.Release(m)` (directly or via a trivial closure)
//     discharges the obligation on every exit, panic exits included.
//   - Leaks are reported per exit only when no world reaching that
//     exit released the borrow site — so a release that the analysis
//     can see on any feasible path suppresses the report, keeping the
//     analyzer quiet on correct-but-clever code at the price of a few
//     false negatives.
var ArenaLease = &Analyzer{
	Name: "arenalease",
	Doc: "Arena.Borrow results must be released exactly once on every path " +
		"(early returns and panic exits included), never twice, never after release, " +
		"and never into a different arena",
	Run: runArenaLease,
}

// maxWorlds bounds the disjunctive state per block; functions whose
// branching exceeds it are skipped rather than half-analyzed.
const maxWorlds = 48

func runArenaLease(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !containsBorrow(p, fd.Body) {
				continue
			}
			a := &alAnalysis{p: p, reported: map[string]bool{}}
			a.run(fd)
		}
	}
}

// containsBorrow reports whether the body calls an arena borrow at all
// — the cheap gate that keeps the dataflow engine off borrow-free
// functions.
func containsBorrow(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := borrowCall(p, call); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// borrowCall matches `recv.Borrow(...)` / `recv.BorrowUninit(...)`
// where recv is an exec Ctx or Arena (matched by type name, like the
// other analyzers, so self-contained fixtures can exercise the rule)
// and returns the rendered receiver.
func borrowCall(p *Pass, call *ast.CallExpr) (recv string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", false
	}
	if name := sel.Sel.Name; name != "Borrow" && name != "BorrowUninit" {
		return "", false
	}
	if !isArenaOwner(p.TypeOf(sel.X)) {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// releaseCall matches `recv.Release(m)` on a Ctx or Arena receiver.
func releaseCall(p *Pass, call *ast.CallExpr) (recv string, arg ast.Expr, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel || sel.Sel.Name != "Release" || len(call.Args) != 1 {
		return "", nil, false
	}
	if !isArenaOwner(p.TypeOf(sel.X)) {
		return "", nil, false
	}
	return types.ExprString(sel.X), call.Args[0], true
}

// isArenaOwner reports whether t names a Ctx or Arena (through one
// level of pointer).
func isArenaOwner(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Ctx" || name == "Arena"
}

// ---------------------------------------------------------------------
// Abstract state
// ---------------------------------------------------------------------

type alState uint8

const (
	alLeased alState = iota
	alReleased
	alEscaped
)

// alLease is one abstract borrow: where it happened, which arena lent
// it, and its current state in this world.
type alLease struct {
	site  token.Pos
	arena string // rendered borrow receiver ("ctx", "c.arena", ...)
	state alState
}

// nilBound marks a variable known to be nil (declared without value or
// assigned nil) — the anchor of nil-check refinement.
const nilBound = -2

// alDefer is one registered deferred release: either a lease captured
// at registration (defer ctx.Release(m) evaluates m then) or a
// variable resolved at exit (the closure form).
type alDefer struct {
	lease int          // captured lease index, or -1
	obj   types.Object // resolved at exit when lease == -1
	arena string
	pos   token.Pos
}

// alFact is a remembered pure-condition outcome, used to keep
// correlated branches on the same side (e.g. two `i != last` guards).
type alFact struct {
	str    string
	val    bool
	idents map[string]bool // local identifiers the condition reads
}

// alWorld is one path-state: variable bindings, lease table, deferred
// releases, remembered branch facts, and the borrow sites this path
// has fully released (leak damping).
type alWorld struct {
	vars   map[types.Object]int // lease index, or nilBound
	leases []alLease
	defers []alDefer
	facts  []alFact
	rel    map[token.Pos]bool
}

func newWorld() *alWorld {
	return &alWorld{vars: map[types.Object]int{}, rel: map[token.Pos]bool{}}
}

func (w *alWorld) clone() *alWorld {
	nw := &alWorld{
		vars:   make(map[types.Object]int, len(w.vars)),
		leases: append([]alLease(nil), w.leases...),
		defers: append([]alDefer(nil), w.defers...),
		facts:  append([]alFact(nil), w.facts...),
		rel:    make(map[token.Pos]bool, len(w.rel)),
	}
	for k, v := range w.vars {
		nw.vars[k] = v
	}
	for k := range w.rel {
		nw.rel[k] = true
	}
	return nw
}

// key returns a canonical serialization for deduplication and fixpoint
// detection. Lease indices are renamed to first-reference order over
// name-sorted variables, so structurally identical worlds compare
// equal regardless of allocation history.
func (w *alWorld) key() string {
	names := make([]string, 0, len(w.vars))
	byName := make(map[string]types.Object, len(w.vars))
	for obj := range w.vars {
		n := obj.Name() + "@" + posKey(obj.Pos())
		names = append(names, n)
		byName[n] = obj
	}
	sort.Strings(names)
	rename := map[int]int{}
	var sb strings.Builder
	for _, n := range names {
		idx := w.vars[byName[n]]
		sb.WriteString(n)
		if idx == nilBound {
			sb.WriteString("=nil;")
			continue
		}
		g, ok := rename[idx]
		if !ok {
			g = len(rename)
			rename[idx] = g
		}
		l := w.leases[idx]
		sb.WriteString("=L")
		sb.WriteByte(byte('0' + g%10))
		sb.WriteString(posKey(l.site))
		sb.WriteString(l.arena)
		sb.WriteByte(byte('a' + l.state))
		sb.WriteByte(';')
	}
	var ds []string
	for _, d := range w.defers {
		if d.lease >= 0 {
			ds = append(ds, "dl"+posKey(w.leases[d.lease].site))
		} else {
			ds = append(ds, "dv"+d.obj.Name())
		}
	}
	sort.Strings(ds)
	sb.WriteString(strings.Join(ds, ","))
	var fs []string
	for _, f := range w.facts {
		v := "F"
		if f.val {
			v = "T"
		}
		fs = append(fs, f.str+v)
	}
	sort.Strings(fs)
	sb.WriteString("|")
	sb.WriteString(strings.Join(fs, ","))
	var rs []string
	for pos := range w.rel {
		rs = append(rs, posKey(pos))
	}
	sort.Strings(rs)
	sb.WriteString("|")
	sb.WriteString(strings.Join(rs, ","))
	return sb.String()
}

func posKey(p token.Pos) string {
	const digits = "0123456789"
	if p == token.NoPos {
		return "-"
	}
	n := int(p)
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = digits[n%10]
		n /= 10
	}
	return string(b[i:])
}

// ---------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------

type alAnalysis struct {
	p        *Pass
	cfg      *CFG
	reported map[string]bool
	bail     bool
}

func (a *alAnalysis) run(fd *ast.FuncDecl) {
	a.cfg = BuildCFG(a.p, fd)
	if a.cfg.HasGoto {
		return
	}
	in := make([]map[string]*alWorld, len(a.cfg.Blocks))
	entry := newWorld()
	in[a.cfg.Entry.Index] = map[string]*alWorld{entry.key(): entry}

	// Fixpoint over block-entry states.
	work := []*Block{a.cfg.Entry}
	inWork := make([]bool, len(a.cfg.Blocks))
	inWork[a.cfg.Entry.Index] = true
	for len(work) > 0 && !a.bail {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false
		edgeOuts := a.transfer(blk, in[blk.Index], nil)
		for si, succ := range blk.Succs {
			changed := false
			if in[succ.Index] == nil {
				in[succ.Index] = map[string]*alWorld{}
			}
			for k, w := range edgeOuts[si] {
				if _, ok := in[succ.Index][k]; !ok {
					in[succ.Index][k] = w
					changed = true
				}
			}
			if len(in[succ.Index]) > maxWorlds {
				a.bail = true
				break
			}
			if changed && !inWork[succ.Index] {
				work = append(work, succ)
				inWork[succ.Index] = true
			}
		}
	}
	if a.bail {
		return
	}
	// Reporting pass over the stabilized states.
	rep := &alReporter{a: a, end: fd.Body.End()}
	for _, blk := range a.cfg.Blocks {
		if in[blk.Index] == nil {
			continue
		}
		a.transfer(blk, in[blk.Index], rep)
	}
	rep.flush()
}

// transfer runs every world of the entry set through the block's nodes
// and splits the result across the successor edges (applying branch
// refinement when the block ends in a condition). rep is nil during
// the fixpoint and set during the reporting pass.
func (a *alAnalysis) transfer(blk *Block, inSet map[string]*alWorld, rep *alReporter) []map[string]*alWorld {
	outs := make([]map[string]*alWorld, len(blk.Succs))
	for i := range outs {
		outs[i] = map[string]*alWorld{}
	}
	keys := make([]string, 0, len(inSet))
	for k := range inSet {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic report order
	fallsToExit := len(blk.Succs) == 1 && blk.Succs[0] == a.cfg.Exit &&
		(len(blk.Nodes) == 0 || !isReturn(blk.Nodes[len(blk.Nodes)-1]))
	for _, k := range keys {
		w := inSet[k].clone()
		for _, n := range blk.Nodes {
			a.node(w, n, rep)
			switch nn := n.(type) {
			case *ast.ReturnStmt:
				a.evalExit(w, nn.Pos(), false, rep)
			case *ast.ExprStmt:
				if call, ok := nn.X.(*ast.CallExpr); ok && builtinName(a.p, call) == "panic" {
					a.evalExit(w, nn.Pos(), true, rep)
				}
			}
		}
		if fallsToExit && rep != nil {
			a.evalExit(w, rep.end, false, rep)
		}
		if blk.Cond != nil && len(blk.Succs) == 2 {
			a.refine(w, blk.Cond, outs)
		} else {
			for i := range outs {
				nw := w
				if i > 0 {
					nw = w.clone()
				}
				outs[i][nw.key()] = nw
			}
		}
	}
	return outs
}

func isReturn(n ast.Node) bool {
	_, ok := n.(*ast.ReturnStmt)
	return ok
}

// refine routes a world down the true/false edges of a condition,
// using lease-backed nil knowledge and remembered facts.
func (a *alAnalysis) refine(w *alWorld, cond ast.Expr, outs []map[string]*alWorld) {
	// Nil-comparison of a tracked variable: a lease is never nil, a
	// nil-bound variable always is.
	if obj, eq := a.nilCompare(cond); obj != nil {
		if idx, ok := w.vars[obj]; ok {
			isNil := idx == nilBound
			// cond is `x == nil` when eq, `x != nil` otherwise.
			val := isNil == eq
			edge := 1
			if val {
				edge = 0
			}
			outs[edge][w.key()] = w
			return
		}
	}
	str, idents, pure := a.pureCond(cond)
	if pure {
		for _, f := range w.facts {
			if f.str == str {
				edge := 1
				if f.val {
					edge = 0
				}
				outs[edge][w.key()] = w
				return
			}
		}
	}
	wt, wf := w, w.clone()
	if pure {
		wt.facts = append(wt.facts, alFact{str: str, val: true, idents: idents})
		wf.facts = append(wf.facts, alFact{str: str, val: false, idents: idents})
	}
	outs[0][wt.key()] = wt
	outs[1][wf.key()] = wf
}

// nilCompare matches `x == nil` / `x != nil` over a plain identifier,
// returning the identifier's object and whether the comparison is ==.
func (a *alAnalysis) nilCompare(cond ast.Expr) (types.Object, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(a.p, y) {
		// fallthrough with x
	} else if isNilIdent(a.p, x) {
		x = y
	} else {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	return a.p.Info.Uses[id], be.Op == token.EQL
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}

// pureCond renders a side-effect-free condition over local variables
// for fact tracking. Anything touching fields, channels or non-builtin
// calls is rejected: a remembered outcome must stay valid until one of
// its identifiers is reassigned.
func (a *alAnalysis) pureCond(cond ast.Expr) (string, map[string]bool, bool) {
	idents := map[string]bool{}
	if !a.pureExpr(cond, idents) || len(idents) == 0 {
		return "", nil, false
	}
	return types.ExprString(cond), idents, true
}

func (a *alAnalysis) pureExpr(e ast.Expr, idents map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := a.p.Info.Uses[e]
		if obj == nil {
			return true // true/false/nil
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if v.IsField() || v.Parent() == nil || v.Parent() == a.p.Pkg.Scope() {
			return false
		}
		idents[e.Name] = true
		return true
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return a.pureExpr(e.X, idents)
	case *ast.UnaryExpr:
		return e.Op != token.ARROW && e.Op != token.AND && a.pureExpr(e.X, idents)
	case *ast.BinaryExpr:
		return a.pureExpr(e.X, idents) && a.pureExpr(e.Y, idents)
	case *ast.CallExpr:
		if name := builtinName(a.p, e); name == "len" || name == "cap" {
			for _, arg := range e.Args {
				if !a.pureExpr(arg, idents) {
					return false
				}
			}
			return true
		}
		return false
	default:
		return false
	}
}

// ---------------------------------------------------------------------
// Node transfer
// ---------------------------------------------------------------------

func (a *alAnalysis) node(w *alWorld, n ast.Node, rep *alReporter) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(w, n, rep)
	case *ast.DeclStmt:
		a.declStmt(w, n, rep)
	case *ast.ExprStmt:
		a.exprStmt(w, n, rep)
	case *ast.DeferStmt:
		a.deferStmt(w, n, rep)
	case *ast.GoStmt:
		// A goroutine runs after we lose sight of it: everything
		// tracked it touches escapes.
		a.escapeAll(w, n.Call)
		a.use(w, n.Call, rep)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.escapeIfTracked(w, r)
			a.use(w, r, rep)
		}
	case *ast.RangeStmt:
		a.use(w, n.X, rep)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := a.objOf(id); obj != nil {
					a.unbind(w, obj, id.Pos(), rep)
					a.invalidateFacts(w, id.Name)
				}
			}
		}
	case *ast.IncDecStmt:
		a.use(w, n.X, rep)
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			a.invalidateFacts(w, id.Name)
		}
	case *ast.SendStmt:
		a.escapeIfTracked(w, n.Value)
		a.use(w, n.Chan, rep)
		a.use(w, n.Value, rep)
	case ast.Expr:
		a.use(w, n, rep)
	case ast.Stmt:
		// Remaining statements (empty, labeled leftovers) carry no
		// lease semantics.
	}
	a.gc(w, rep)
}

func (a *alAnalysis) assign(w *alWorld, as *ast.AssignStmt, rep *alReporter) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		// Compound assignment: read-modify-write, no rebinding.
		for _, e := range as.Lhs {
			a.use(w, e, rep)
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				a.invalidateFacts(w, id.Name)
			}
		}
		for _, e := range as.Rhs {
			a.use(w, e, rep)
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		// x, y := f(): nothing trackable comes out of a tuple.
		for _, r := range as.Rhs {
			a.use(w, r, rep)
		}
		for _, l := range as.Lhs {
			a.clearTarget(w, l, rep)
		}
		return
	}
	for i := range as.Lhs {
		a.assignPair(w, as.Lhs[i], as.Rhs[i], rep)
	}
}

func (a *alAnalysis) assignPair(w *alWorld, lhs, rhs ast.Expr, rep *alReporter) {
	lhs = ast.Unparen(lhs)
	id, lhsIsIdent := lhs.(*ast.Ident)

	// Borrow on the right?
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if arena, ok := borrowCall(a.p, call); ok {
			for _, arg := range call.Args {
				a.use(w, arg, rep)
			}
			if lhsIsIdent && id.Name != "_" {
				if obj := a.objOf(id); obj != nil {
					a.unbind(w, obj, id.Pos(), rep)
					a.invalidateFacts(w, id.Name)
					w.leases = append(w.leases, alLease{site: call.Pos(), arena: arena, state: alLeased})
					w.vars[obj] = len(w.leases) - 1
					return
				}
			}
			// Discarded or stored somewhere untrackable.
			if lhsIsIdent && id.Name == "_" {
				rep.report(call.Pos(), "arenalease: borrow result discarded; it can never be released")
				return
			}
			a.clearTarget(w, lhs, rep)
			return
		}
	}

	// Alias: x = y where y is tracked.
	if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if robj := a.p.Info.Uses[rid]; robj != nil {
			if idx, tracked := w.vars[robj]; tracked {
				a.use(w, rhs, rep)
				if lhsIsIdent && id.Name != "_" {
					if obj := a.objOf(id); obj != nil {
						a.unbind(w, obj, id.Pos(), rep)
						a.invalidateFacts(w, id.Name)
						w.vars[obj] = idx
						return
					}
				}
				// Tracked value stored through a field/index/deref:
				// it escapes this function's view.
				a.escapeIfTracked(w, rhs)
				a.clearTarget(w, lhs, rep)
				return
			}
		}
	}

	// nil on the right.
	if isNilIdent(a.p, ast.Unparen(rhs)) && lhsIsIdent && id.Name != "_" {
		if obj := a.objOf(id); obj != nil {
			a.unbind(w, obj, id.Pos(), rep)
			a.invalidateFacts(w, id.Name)
			w.vars[obj] = nilBound
			return
		}
	}

	a.use(w, rhs, rep)
	a.clearTarget(w, lhs, rep)
}

// clearTarget unbinds an identifier target (or, for field/index
// targets, records the use of the base expression).
func (a *alAnalysis) clearTarget(w *alWorld, lhs ast.Expr, rep *alReporter) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := a.objOf(id); obj != nil {
			a.unbind(w, obj, id.Pos(), rep)
			a.invalidateFacts(w, id.Name)
		}
		return
	}
	a.use(w, lhs, rep)
}

// objOf resolves an identifier in defining or using position.
func (a *alAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := a.p.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.p.Info.Uses[id]
}

// unbind removes obj's binding. If that drops the last reference to a
// live lease (and no defer holds it), the borrow can no longer be
// released — report it.
func (a *alAnalysis) unbind(w *alWorld, obj types.Object, pos token.Pos, rep *alReporter) {
	idx, ok := w.vars[obj]
	delete(w.vars, obj)
	if !ok || idx < 0 {
		return
	}
	if w.leases[idx].state != alLeased {
		return
	}
	if a.referenced(w, idx) {
		return
	}
	rep.reportf(w.leases[idx].site, "arenalease: borrow is overwritten at line %d before being released",
		rep.line(a.p, pos))
	w.leases[idx].state = alEscaped // reported once; drop the obligation
}

func (a *alAnalysis) referenced(w *alWorld, idx int) bool {
	for _, v := range w.vars {
		if v == idx {
			return true
		}
	}
	for _, d := range w.defers {
		if d.lease == idx {
			return true
		}
	}
	return false
}

func (a *alAnalysis) declStmt(w *alWorld, ds *ast.DeclStmt, rep *alReporter) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == len(vs.Names) {
			for i := range vs.Names {
				a.assignPair(w, vs.Names[i], vs.Values[i], rep)
			}
			continue
		}
		for _, v := range vs.Values {
			a.use(w, v, rep)
		}
		if len(vs.Values) == 0 {
			// var x *Matrix — zero value: definitely nil for pointers.
			for _, name := range vs.Names {
				obj := a.p.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
					w.vars[obj] = nilBound
				}
			}
		}
	}
}

func (a *alAnalysis) exprStmt(w *alWorld, es *ast.ExprStmt, rep *alReporter) {
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		a.use(w, es.X, rep)
		return
	}
	if _, ok := borrowCall(a.p, call); ok {
		rep.report(call.Pos(), "arenalease: borrow result discarded; it can never be released")
		return
	}
	if recv, arg, ok := releaseCall(a.p, call); ok {
		a.release(w, recv, arg, call.Pos(), rep)
		return
	}
	a.use(w, es.X, rep)
}

func (a *alAnalysis) release(w *alWorld, recv string, arg ast.Expr, pos token.Pos, rep *alReporter) {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		a.use(w, arg, rep)
		return
	}
	obj := a.p.Info.Uses[id]
	if obj == nil {
		return
	}
	idx, tracked := w.vars[obj]
	if !tracked || idx < 0 {
		return // parameter or untracked value: the caller's obligation
	}
	l := &w.leases[idx]
	switch l.state {
	case alEscaped:
		// Ownership left our view; take the release at face value.
		l.state = alReleased
	case alReleased:
		rep.reportf(pos, "arenalease: %s released twice (borrowed at line %d)", id.Name, rep.line(a.p, l.site))
	case alLeased:
		if isPlainIdent(recv) && isPlainIdent(l.arena) && recv != l.arena {
			rep.reportf(pos, "arenalease: %s borrowed from %q but released into %q", id.Name, l.arena, recv)
		}
		l.state = alReleased
		w.rel[l.site] = true
	}
}

func isPlainIdent(s string) bool {
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return s != ""
}

func (a *alAnalysis) deferStmt(w *alWorld, ds *ast.DeferStmt, rep *alReporter) {
	call := ds.Call
	// defer recv.Release(m): the argument is evaluated now, so the
	// deferred release pins m's current lease.
	if recv, arg, ok := releaseCall(a.p, call); ok {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := a.p.Info.Uses[id]; obj != nil {
				if idx, tracked := w.vars[obj]; tracked && idx >= 0 {
					w.defers = append(w.defers, alDefer{lease: idx, obj: nil, arena: recv, pos: ds.Pos()})
					return
				}
			}
		}
		a.use(w, arg, rep)
		return
	}
	// defer func() { recv.Release(m) }(): m resolves at exit.
	if fl, ok := call.Fun.(*ast.FuncLit); ok && len(call.Args) == 0 {
		handled := map[types.Object]bool{}
		onlyReleases := true
		for _, st := range fl.Body.List {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				onlyReleases = false
				break
			}
			c, ok := es.X.(*ast.CallExpr)
			if !ok {
				onlyReleases = false
				break
			}
			recv, arg, ok := releaseCall(a.p, c)
			if !ok {
				onlyReleases = false
				break
			}
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				onlyReleases = false
				break
			}
			obj := a.p.Info.Uses[id]
			if obj == nil {
				onlyReleases = false
				break
			}
			handled[obj] = true
			w.defers = append(w.defers, alDefer{lease: -1, obj: obj, arena: recv, pos: ds.Pos()})
		}
		if onlyReleases && len(handled) > 0 {
			return
		}
		// Mixed closure: fall through to the generic escape treatment.
	}
	a.escapeAll(w, call)
	a.use(w, call, rep)
}

// ---------------------------------------------------------------------
// Uses and escapes
// ---------------------------------------------------------------------

// use walks an expression, reporting uses of released leases and
// escaping leases that flow into closures, composite literals or
// address-of expressions.
func (a *alAnalysis) use(w *alWorld, e ast.Expr, rep *alReporter) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		a.useIdent(w, e, rep)
	case *ast.ParenExpr:
		a.use(w, e.X, rep)
	case *ast.SelectorExpr:
		a.use(w, e.X, rep)
	case *ast.StarExpr:
		a.use(w, e.X, rep)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			a.escapeIfTracked(w, e.X)
		}
		a.use(w, e.X, rep)
	case *ast.BinaryExpr:
		a.use(w, e.X, rep)
		a.use(w, e.Y, rep)
	case *ast.IndexExpr:
		a.use(w, e.X, rep)
		a.use(w, e.Index, rep)
	case *ast.SliceExpr:
		a.use(w, e.X, rep)
		a.use(w, e.Low, rep)
		a.use(w, e.High, rep)
		a.use(w, e.Max, rep)
	case *ast.TypeAssertExpr:
		a.use(w, e.X, rep)
	case *ast.CallExpr:
		// Passing a lease to a callee is a use, not a transfer: the
		// ownership rules say callees never release caller buffers.
		a.use(w, e.Fun, rep)
		for _, arg := range e.Args {
			a.use(w, arg, rep)
		}
	case *ast.CompositeLit:
		// A lease stored into a composite value escapes.
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			a.escapeIfTracked(w, elt)
			a.use(w, elt, rep)
		}
	case *ast.FuncLit:
		a.escapeCaptured(w, e)
	}
}

func (a *alAnalysis) useIdent(w *alWorld, id *ast.Ident, rep *alReporter) {
	obj := a.p.Info.Uses[id]
	if obj == nil {
		return
	}
	idx, tracked := w.vars[obj]
	if !tracked || idx < 0 {
		return
	}
	if w.leases[idx].state == alReleased {
		rep.reportf(id.Pos(), "arenalease: %s used after release (borrowed at line %d, released before this use)",
			id.Name, rep.line(a.p, w.leases[idx].site))
	}
}

// escapeIfTracked drops the obligation on a lease whose value leaves
// the function's view.
func (a *alAnalysis) escapeIfTracked(w *alWorld, e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj := a.p.Info.Uses[id]
	if obj == nil {
		return
	}
	if idx, tracked := w.vars[obj]; tracked && idx >= 0 && w.leases[idx].state == alLeased {
		w.leases[idx].state = alEscaped
	}
}

// escapeCaptured escapes every tracked variable a closure captures.
func (a *alAnalysis) escapeCaptured(w *alWorld, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			a.escapeIfTracked(w, id)
		}
		return true
	})
}

// escapeAll escapes every tracked variable appearing anywhere in e.
func (a *alAnalysis) escapeAll(w *alWorld, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			a.escapeIfTracked(w, id)
		}
		return true
	})
}

func (a *alAnalysis) invalidateFacts(w *alWorld, name string) {
	kept := w.facts[:0]
	for _, f := range w.facts {
		if !f.idents[name] {
			kept = append(kept, f)
		}
	}
	w.facts = kept
}

// gc drops leases no variable or defer references any more; released
// ones record their site for leak damping.
func (a *alAnalysis) gc(w *alWorld, rep *alReporter) {
	for idx := range w.leases {
		if w.leases[idx].state == alLeased && !a.referenced(w, idx) {
			// Reachable only through values we stopped tracking; be
			// conservative and drop the obligation (escape-equivalent)
			// — unbind already reported the interesting cases.
			w.leases[idx].state = alEscaped
		}
	}
}

// ---------------------------------------------------------------------
// Exit evaluation and reporting
// ---------------------------------------------------------------------

// evalExit applies the world's deferred releases, then records, per
// borrow site, whether this world leaks or releases at the given exit.
// The reporter aggregates across worlds: a site is reported only when
// some world leaks it and none releases it.
func (a *alAnalysis) evalExit(w *alWorld, pos token.Pos, isPanic bool, rep *alReporter) {
	if rep == nil {
		return
	}
	ew := w.clone()
	for _, d := range ew.defers {
		idx := d.lease
		if idx < 0 {
			if vi, ok := ew.vars[d.obj]; ok && vi >= 0 {
				idx = vi
			} else {
				continue
			}
		}
		l := &ew.leases[idx]
		if l.state == alLeased {
			if isPlainIdent(d.arena) && isPlainIdent(l.arena) && d.arena != l.arena {
				rep.reportf(d.pos, "arenalease: deferred release into %q but borrowed from %q", d.arena, l.arena)
			}
			l.state = alReleased
			ew.rel[l.site] = true
		}
	}
	ex := rep.exit(pos, isPanic)
	leasedNow := map[token.Pos]bool{}
	for _, l := range ew.leases {
		if l.state == alLeased {
			leasedNow[l.site] = true
			ex.leaked[l.site] = true
		}
	}
	// A world only vouches for a site if it released it AND holds no
	// live lease from it right now — otherwise a loop that releases
	// iteration N-1's lease while leaking iteration N's would suppress
	// its own report.
	for _, l := range ew.leases {
		if l.state == alReleased && !leasedNow[l.site] {
			ex.released[l.site] = true
		}
	}
	for site := range ew.rel {
		if !leasedNow[site] {
			ex.released[site] = true
		}
	}
}

// alReporter dedupes diagnostics and aggregates per-exit leak
// evidence across worlds.
type alReporter struct {
	a     *alAnalysis
	end   token.Pos
	exits map[token.Pos]*alExit
	order []token.Pos
}

type alExit struct {
	pos      token.Pos
	isPanic  bool
	leaked   map[token.Pos]bool
	released map[token.Pos]bool
}

func (r *alReporter) exit(pos token.Pos, isPanic bool) *alExit {
	if r.exits == nil {
		r.exits = map[token.Pos]*alExit{}
	}
	e, ok := r.exits[pos]
	if !ok {
		e = &alExit{pos: pos, isPanic: isPanic, leaked: map[token.Pos]bool{}, released: map[token.Pos]bool{}}
		r.exits[pos] = e
		r.order = append(r.order, pos)
	}
	return e
}

// flush emits one leak diagnostic per borrow site, anchored at the
// borrow, naming the first offending exit.
func (r *alReporter) flush() {
	if r == nil {
		return
	}
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
	reportedSite := map[token.Pos]bool{}
	for _, pos := range r.order {
		e := r.exits[pos]
		var sites []token.Pos
		for site := range e.leaked {
			if !e.released[site] && !reportedSite[site] {
				sites = append(sites, site)
			}
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		for _, site := range sites {
			reportedSite[site] = true
			kind := "return"
			if e.isPanic {
				kind = "panic exit"
			}
			r.reportf(site, "arenalease: borrow is not released on every path (%s at line %d)",
				kind, r.line(r.a.p, e.pos))
		}
	}
}

func (r *alReporter) line(p *Pass, pos token.Pos) int {
	return p.Fset.Position(pos).Line
}

func (r *alReporter) report(pos token.Pos, msg string) {
	if r == nil {
		return
	}
	key := posKey(pos) + msg
	if r.a.reported[key] {
		return
	}
	r.a.reported[key] = true
	r.a.p.Reportf(pos, "%s", msg)
}

func (r *alReporter) reportf(pos token.Pos, format string, args ...interface{}) {
	if r == nil {
		return
	}
	r.report(pos, fmt.Sprintf(format, args...))
}
