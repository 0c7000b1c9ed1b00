package checkers

import (
	"go/ast"
	"go/types"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// ctxLaunchers computes the launcher summary over the call graph: a
// function is a launcher when it receives a context.Context and either
// starts a goroutine itself or hands a context to another launcher.
// ctxflow uses it to explain what a re-rooted context actually
// detaches — across package boundaries, through forwarding chains of
// any depth.
func ctxLaunchers(g *analysis.CallGraph) map[*types.Func]bool {
	return analysis.BottomUp(g, func(n *analysis.CGNode, get func(*types.Func) (bool, bool)) bool {
		if n.Decl.Body == nil || len(ctxParams(n.Info, n.Decl)) == 0 {
			return false
		}
		found := false
		ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
			if found {
				return false
			}
			switch c := c.(type) {
			case *ast.GoStmt:
				found = true
				return false
			case *ast.CallExpr:
				callee, ok := calleeObject(n.Info, c).(*types.Func)
				if !ok {
					return true
				}
				if launcher, _ := get(callee); !launcher {
					return true
				}
				for _, arg := range c.Args {
					if isContextExpr(n.Info, arg) {
						found = true
						return false
					}
				}
			}
			return true
		})
		return found
	})
}

// CtxFlow returns the context-propagation analyzer. A function that
// receives a context.Context has joined a cancellation tree, and the
// checks all guard that membership:
//
//   - re-rooting: calling context.Background()/context.TODO() inside a
//     function that already has a context detaches whatever runs under
//     the new root from the caller's deadline and cancellation. The
//     one sanctioned shape is nil-defaulting at an API boundary:
//     `if ctx == nil { ctx = context.Background() }`.
//   - blocking loops: a loop that blocks (time.Sleep, channel send or
//     receive) without ever consulting ctx.Done()/ctx.Err() cannot be
//     stopped by cancellation — exactly the shape that turns a
//     graceful drain into a hang.
//   - contexts in struct fields: storing a context outlives the call
//     it scoped; pass it as the first parameter instead (the Go
//     context contract). Struct storage also hides the re-root above
//     from this analyzer, so the two checks close over each other.
//
// Package main is exempt: main owns the root of the context tree, so
// creating one there is the point.
func CtxFlow() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "ctxflow",
		Doc: "enforce context propagation: no context.Background()/TODO() re-roots in " +
			"functions that receive a ctx (nil-defaulting excepted), no blocking loops " +
			"that ignore ctx.Done(), no context.Context struct fields",
	}
	launchers := perGraph(ctxLaunchers)
	a.Run = func(pass *analysis.Pass) error {
		if pass.Pkg.Name() == "main" {
			return nil
		}
		launched := launchers(pass.CallGraph)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					checkCtxFields(pass, d)
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					params := ctxParams(pass.Info, d)
					if len(params) == 0 {
						continue
					}
					checkReroot(pass, d, params, launched)
					checkBlockingLoops(pass, d)
				}
			}
		}
		return nil
	}
	return a
}

// ctxParams returns the objects of fn's context.Context parameters.
func ctxParams(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// isContextExpr reports whether e's static type is context.Context.
func isContextExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isContextType(tv.Type)
}

// calleeObject resolves the called function's object for plain and
// selector calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isCtxRoot reports whether call is context.Background() or
// context.TODO(), returning the function name.
func isCtxRoot(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn, ok := calleeObject(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// checkReroot flags context.Background()/TODO() calls in a function
// that already receives a context, except the nil-defaulting idiom.
func checkReroot(pass *analysis.Pass, fn *ast.FuncDecl, params []types.Object, launched map[*types.Func]bool) {
	allowed := nilGuardRoots(pass, fn, params)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isCtxRoot(pass, call)
		if !ok || allowed[call] {
			return true
		}
		if launcher := launcherTakingArg(pass, fn, call, launched); launcher != "" {
			pass.Reportf(call.Pos(),
				"context.%s() handed to %s detaches its goroutines from %s's own context; propagate the ctx parameter instead",
				name, launcher, fn.Name.Name)
			return true
		}
		pass.Reportf(call.Pos(),
			"%s receives a context.Context but re-roots with context.%s(); propagate the ctx parameter (nil-defaulting `if ctx == nil` is the one sanctioned re-root)",
			fn.Name.Name, name)
		return true
	})
}

// nilGuardRoots collects the Background/TODO calls inside the
// sanctioned defaulting idiom: an `if ctx == nil` whose body assigns a
// fresh root back to the same ctx parameter.
func nilGuardRoots(pass *analysis.Pass, fn *ast.FuncDecl, params []types.Object) map[*ast.CallExpr]bool {
	allowed := map[*ast.CallExpr]bool{}
	paramSet := map[types.Object]bool{}
	for _, p := range params {
		paramSet[p] = true
	}
	resolve := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		return obj
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" {
			return true
		}
		var guarded types.Object
		if isNilIdent(cond.Y) {
			guarded = resolve(cond.X)
		} else if isNilIdent(cond.X) {
			guarded = resolve(cond.Y)
		}
		if guarded == nil || !paramSet[guarded] {
			return true
		}
		for _, st := range ifs.Body.List {
			assign, ok := st.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
				continue
			}
			if resolve(assign.Lhs[0]) != guarded {
				continue
			}
			if call, ok := assign.Rhs[0].(*ast.CallExpr); ok {
				if _, isRoot := isCtxRoot(pass, call); isRoot {
					allowed[call] = true
				}
			}
		}
		return true
	})
	return allowed
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// launcherTakingArg returns the printable name of the launcher callee
// receiving call as a direct argument, or "".
func launcherTakingArg(pass *analysis.Pass, fn *ast.FuncDecl, root *ast.CallExpr, launched map[*types.Func]bool) string {
	name := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || name != "" {
			return name == ""
		}
		isArg := false
		for _, arg := range call.Args {
			if arg == ast.Expr(root) {
				isArg = true
			}
		}
		if !isArg {
			return true
		}
		if callee, ok := calleeObject(pass.Info, call).(*types.Func); ok && launched[callee] {
			name = callee.Name()
			if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
				name = callee.Pkg().Name() + "." + name
			}
		}
		return true
	})
	return name
}

// checkBlockingLoops reports loops that block without observing the
// context. The CFG's loop inventory scopes the search: a nested loop
// is judged on its own blocks, so an outer loop's ctx check does not
// excuse an inner busy loop.
func checkBlockingLoops(pass *analysis.Pass, fn *ast.FuncDecl) {
	g := analysis.NewCFG(fn.Body)
	for _, loop := range g.Loops {
		blocks := false
		observes := false
		for _, blk := range loop.Blocks {
			for _, node := range blk.Nodes {
				ast.Inspect(node, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false // a closure blocks on its own time
					}
					switch n := n.(type) {
					case *ast.SendStmt:
						blocks = true
					case *ast.UnaryExpr:
						if n.Op.String() == "<-" {
							blocks = true
						}
					case *ast.CallExpr:
						if isTimeSleep(pass, n) {
							blocks = true
						}
					case *ast.SelectorExpr:
						if (n.Sel.Name == "Done" || n.Sel.Name == "Err") && isContextExpr(pass.Info, n.X) {
							observes = true
						}
					}
					return true
				})
			}
		}
		if blocks && !observes {
			pass.Reportf(loop.Stmt.Pos(),
				"%s receives a context.Context but this loop blocks (time.Sleep or channel op) without observing ctx.Done(); cancellation cannot stop it",
				fn.Name.Name)
		}
	}
}

// isTimeSleep reports whether call is time.Sleep.
func isTimeSleep(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pass.Info, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep"
}

// checkCtxFields flags struct fields of type context.Context.
func checkCtxFields(pass *analysis.Pass, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			tv, ok := pass.Info.Types[field.Type]
			if !ok || tv.Type == nil || !isContextType(tv.Type) {
				continue
			}
			pass.Reportf(field.Pos(),
				"struct %s stores a context.Context in a field; a context scopes one call tree — pass it as a parameter instead",
				ts.Name.Name)
		}
	}
}
