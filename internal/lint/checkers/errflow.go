package checkers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// ErrFlow returns the errflow analyzer: no error may be silently
// dropped anywhere in the module. Four rules, in the order they catch
// things in practice:
//
//  1. bare-call discard — an error-returning call used as a bare
//     statement (including go/defer) when the callee is module-local;
//  2. blank discard — `_ = f()` for any error-returning callee, and
//     `v, _ := f()` when the blanked position is the error of a
//     module-local callee;
//  3. captured-but-never-checked — an error bound with `:=` that no
//     CFG path reads before it is overwritten or goes out of scope
//     (`_ = err` later does not count as a read: that is the dodge,
//     not a check);
//  4. wrap discipline — fmt.Errorf formatting an error operand with
//     %v/%s instead of %w, which severs the errors.Is/As chain.
//
// Calls whose callee provably always returns nil are exempt from
// rules 1–3: the summary is computed bottom-up over the module call
// graph, so it crosses package boundaries through arbitrarily deep
// forwarding chains. Justified discards take a
// //lint:ignore loopvet/errflow waiver with a reason.
func ErrFlow() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "errflow",
		Doc: "forbid silently dropped errors: bare or blank-assigned error-returning " +
			"calls, errors captured but never checked on any CFG path, and fmt.Errorf " +
			"wrapping an error with %v/%s instead of %w; suppressed when the callee " +
			"provably always returns nil (bottom-up call-graph summary)",
	}
	alwaysNil := perGraph(solveAlwaysNil)
	a.Run = func(pass *analysis.Pass) error {
		ef := &errFlowPass{pass: pass, alwaysNil: alwaysNil(pass.CallGraph)}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						ef.checkBareCall(call, "")
					}
				case *ast.GoStmt:
					ef.checkBareCall(n.Call, "go ")
				case *ast.DeferStmt:
					ef.checkBareCall(n.Call, "defer ")
				case *ast.AssignStmt:
					ef.checkBlankAssign(n)
				case *ast.CallExpr:
					ef.checkErrorfWrap(n)
				case *ast.FuncDecl:
					if n.Body != nil {
						ef.checkNeverRead(n.Body)
					}
				case *ast.FuncLit:
					ef.checkNeverRead(n.Body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// errFlowPass carries one package's state through the rules.
type errFlowPass struct {
	pass      *analysis.Pass
	alwaysNil map[*types.Func]bool
}

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the built-in error interface — the
// declared type of an error result.
func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// errorResultIndexes returns the result positions declared `error`.
func errorResultIndexes(sig *types.Signature) []int {
	var idx []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// staticCallee resolves call to its one static callee, or nil for
// dynamic calls, conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// moduleLocal reports whether fn is declared in this run's module (it
// has a call-graph node).
func (ef *errFlowPass) moduleLocal(fn *types.Func) bool {
	return ef.pass.CallGraph.Node(fn) != nil
}

// checkBareCall flags rule 1: a module-local error-returning call used
// as a statement (or go/defer target) with nobody looking at the error.
func (ef *errFlowPass) checkBareCall(call *ast.CallExpr, prefix string) {
	fn := staticCallee(ef.pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || len(errorResultIndexes(sig)) == 0 {
		return
	}
	if !ef.moduleLocal(fn) || ef.alwaysNil[fn] {
		return
	}
	ef.pass.Reportf(call.Pos(),
		"error result of %s%s is silently discarded by the bare call; check it, return it, or waive with a reason",
		prefix, shortFunc(fn))
}

// checkBlankAssign flags rule 2: blank-assigned errors.
func (ef *errFlowPass) checkBlankAssign(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := staticCallee(ef.pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	errIdx := errorResultIndexes(sig)
	if len(errIdx) == 0 || len(as.Lhs) != sig.Results().Len() {
		return
	}
	allBlank := true
	errBlank := false
	blankSet := map[int]bool{}
	for i, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
			blankSet[i] = true
		} else {
			allBlank = false
		}
	}
	for _, i := range errIdx {
		if blankSet[i] {
			errBlank = true
		}
	}
	if !errBlank || ef.alwaysNil[fn] {
		return
	}
	// `_ = f()` (everything thrown away) is an explicit dodge for any
	// callee; a partially-consumed `v, _ := f()` is flagged only for
	// module-local callees, where the error contract is ours to keep.
	if !allBlank && !ef.moduleLocal(fn) {
		return
	}
	ef.pass.Reportf(as.Pos(),
		"error result of %s is explicitly discarded with a blank assign; check it or waive with a reason",
		shortFunc(fn))
}

// checkNeverRead flags rule 3 over one function body: an error bound
// with := that no CFG path reads before redefinition or scope exit.
func (ef *errFlowPass) checkNeverRead(body *ast.BlockStmt) {
	g := analysis.NewCFG(body)
	info := ef.pass.Info
	for _, b := range g.ReversePostorder() {
		for i, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := staticCallee(info, call)
			if fn != nil && ef.alwaysNil[fn] {
				continue
			}
			sig, ok := info.Types[call.Fun].Type.Underlying().(*types.Signature)
			if !ok {
				continue
			}
			if sig.Results().Len() != len(as.Lhs) && len(as.Lhs) != 1 {
				continue
			}
			for li, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				// Position li must be an error result.
				var rt types.Type
				if len(as.Lhs) == 1 && sig.Results().Len() == 1 {
					rt = sig.Results().At(0).Type()
				} else if li < sig.Results().Len() {
					rt = sig.Results().At(li).Type()
				}
				if rt == nil || !isErrorType(rt) {
					continue
				}
				obj, ok := info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if !ef.errReadReachable(g, b, i, obj) {
					ef.pass.Reportf(id.Pos(),
						"error %s is captured here but never checked on any path (a later `_ = %s` is a dodge, not a check); handle it or waive with a reason",
						id.Name, id.Name)
				}
			}
		}
	}
}

// errReadReachable walks the CFG from just after the def and reports
// whether any path reads obj before overwriting it.
func (ef *errFlowPass) errReadReachable(g *analysis.CFG, def *analysis.Block, defIdx int, obj *types.Var) bool {
	type item struct {
		b     *analysis.Block
		start int
	}
	seen := map[*analysis.Block]bool{}
	work := []item{{def, defIdx + 1}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		killed := false
		for i := it.start; i < len(it.b.Nodes); i++ {
			read, kill := ef.classifyUse(it.b.Nodes[i], obj)
			if read {
				return true
			}
			if kill {
				killed = true
				break
			}
		}
		if killed {
			continue
		}
		for _, s := range it.b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, item{s, 0})
			}
		}
	}
	return false
}

// classifyUse inspects one CFG node for obj: read means some path
// checks/propagates the error; kill means obj is overwritten without
// being read. `_ = obj` is deliberately neither — the blank assign
// dodge leaves the error as unchecked as before.
func (ef *errFlowPass) classifyUse(n ast.Node, obj *types.Var) (read, kill bool) {
	info := ef.pass.Info
	as, isAssign := n.(*ast.AssignStmt)
	if isAssign {
		// The dodge: every target blank and the sole source is obj.
		if len(as.Rhs) == 1 {
			allBlank := true
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if id, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok && allBlank && info.Uses[id] == obj {
				return false, false
			}
		}
		target := false
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
				target = true
			}
		}
		for _, r := range as.Rhs {
			if usesVar(info, r, obj) {
				return true, false
			}
		}
		if target {
			return false, true
		}
		// obj somewhere inside a non-target LHS expression (index,
		// field) is a read.
		for _, l := range as.Lhs {
			if _, plain := l.(*ast.Ident); !plain && usesVar(info, l, obj) {
				return true, false
			}
		}
		return false, false
	}
	return usesVar(info, n, obj), false
}

// usesVar reports whether any identifier under n resolves to obj.
func usesVar(info *types.Info, n ast.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkErrorfWrap flags rule 4: fmt.Errorf("...%v...", err).
func (ef *errFlowPass) checkErrorfWrap(call *ast.CallExpr) {
	fn := staticCallee(ef.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := ef.pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return
	}
	format := constStringValue(tv)
	if format == "" || strings.Contains(format, "%[") {
		return // explicit argument indexes: not worth modeling
	}
	verbs := fmtVerbs(format)
	for i, v := range verbs {
		if v != 'v' && v != 's' {
			continue
		}
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break
		}
		at, ok := ef.pass.Info.Types[call.Args[argIdx]]
		if !ok || at.Type == nil {
			continue
		}
		if !types.Implements(at.Type, errorType.Underlying().(*types.Interface)) {
			continue
		}
		ef.pass.Reportf(call.Args[argIdx].Pos(),
			"error formatted with %%%c severs the error chain; use %%w so errors.Is/As see through the wrap", v)
	}
}

// constStringValue extracts the string of a constant expression.
func constStringValue(tv types.TypeAndValue) string {
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

// fmtVerbs returns the argument-consuming verbs of a format string in
// order, with '*' entries for dynamic widths (each consumes an arg).
func fmtVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		for i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
			for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
				i++
			}
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

// solveAlwaysNil computes the always-nil summary bottom-up: a function
// whose declared final error result is nil on every return path, where
// "nil" includes forwarding a callee that is itself always-nil. The
// start state is pessimistic (unknown = may fail), so recursion
// converges and the summary never claims nil for a function that can
// return a real error.
func solveAlwaysNil(g *analysis.CallGraph) map[*types.Func]bool {
	return analysis.BottomUp(g, func(n *analysis.CGNode, get func(*types.Func) (bool, bool)) bool {
		sig, ok := n.Func.Type().(*types.Signature)
		if !ok || n.Decl.Body == nil {
			return false
		}
		res := sig.Results()
		if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
			return false
		}
		if res.At(res.Len()-1).Name() != "" {
			// A named error result can be set by a deferred function
			// after any return (the recover-to-error idiom), so
			// explicit `return nil`s prove nothing.
			return false
		}
		nilThrough := func(call *ast.CallExpr) bool {
			fn := staticCallee(n.Info, call)
			if fn == nil {
				return false
			}
			if v, ok := get(fn); ok && v {
				return true
			}
			return false
		}
		ok = true
		var walk func(ast.Node)
		walk = func(root ast.Node) {
			ast.Inspect(root, func(c ast.Node) bool {
				if !ok {
					return false
				}
				switch c := c.(type) {
				case *ast.FuncLit:
					return false // its returns are not ours
				case *ast.ReturnStmt:
					if len(c.Results) == 0 {
						ok = false // named results: not modeled
						return true
					}
					if len(c.Results) == 1 && res.Len() > 1 {
						// Tuple forwarding: return f().
						if call, isCall := ast.Unparen(c.Results[0]).(*ast.CallExpr); !isCall || !nilThrough(call) {
							ok = false
						}
						return true
					}
					last := ast.Unparen(c.Results[len(c.Results)-1])
					if tv, has := n.Info.Types[last]; has && tv.IsNil() {
						return true
					}
					if call, isCall := last.(*ast.CallExpr); isCall && nilThrough(call) {
						return true
					}
					ok = false
				}
				return true
			})
		}
		walk(n.Decl.Body)
		return ok
	})
}
