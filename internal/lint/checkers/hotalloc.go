package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// hotDirective is the comment marking a function (on its doc comment)
// or a whole package (on any file's package clause doc) as an
// allocation hot path.
const hotDirective = "//loopvet:hot"

// HotAlloc returns the hot-path allocation analyzer. It only looks
// inside `//loopvet:hot` scope — the zero-allocation inventory the
// ROADMAP's BenchmarkStreamParse work enforces — and flags the
// constructs that allocate per call or per iteration:
//
//   - fmt.Sprintf/Sprint/Sprintln: every call allocates the result
//     (and boxes the arguments); render with append into a reused
//     buffer instead.
//   - string([]byte) / []byte(string) conversions: each one copies;
//     keep the bytes, or index instead of converting.
//   - inside loops: maps made per iteration, append into a slice
//     declared with no capacity (grow it once with make(len/cap)
//     before the loop), and closures capturing outer variables (a
//     fresh closure header per iteration).
//
// string([]byte) conversions in the contexts the compiler guarantees
// are allocation-free are exempt: a switch tag (switch string(b)), a
// map index read (m[string(b)], including the comma-ok form), a string
// comparison (string(b) == s / !=), and a delete key
// (delete(m, string(b))). A map *store* through a converted key
// (m[string(b)] = v) materializes the key and stays flagged.
//
// Function literals inside a hot function inherit the hot scope, but
// their bodies start at loop depth zero: what runs per iteration is
// the closure allocation itself, which is flagged at the literal.
func HotAlloc() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "flag allocation-heavy constructs in //loopvet:hot scope: fmt.Sprint*, " +
			"string<->[]byte conversions, per-iteration maps and closures, append " +
			"without preallocation",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			pkgHot := hasHotDirective(f.Doc)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if pkgHot || hasHotDirective(fn.Doc) {
					checkHotFunc(pass, fn)
				}
			}
		}
		return nil
	}
	return a
}

// hasHotDirective reports whether the comment group carries the
// //loopvet:hot directive line.
func hasHotDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == hotDirective {
			return true
		}
	}
	return false
}

// checkHotFunc runs the allocation checks over one hot function.
func checkHotFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	noCap := collectNoCapSlices(pass, fn.Body)
	sanctioned := collectFreeConversions(pass, fn.Body)
	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, loopDepth)
				}
				if n.Cond != nil {
					walk(n.Cond, loopDepth)
				}
				if n.Post != nil {
					walk(n.Post, loopDepth+1)
				}
				walk(n.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(n.X, loopDepth)
				walk(n.Body, loopDepth+1)
				return false
			case *ast.FuncLit:
				if loopDepth > 0 {
					if capt := capturedLocal(pass, n); capt != "" {
						pass.Reportf(n.Pos(),
							"closure capturing %s inside a loop allocates per iteration; hoist it out of the loop or pass the value as a parameter (//loopvet:hot)", capt)
					}
				}
				// The body inherits hot scope but restarts loop depth.
				walk(n.Body, 0)
				return false
			case *ast.CallExpr:
				checkHotCall(pass, n, loopDepth, noCap, sanctioned)
			case *ast.CompositeLit:
				if loopDepth > 0 && isMapType(pass.Info.Types[n].Type) {
					pass.Reportf(n.Pos(),
						"map literal inside a loop allocates per iteration; allocate once before the loop and clear/reuse it (//loopvet:hot)")
				}
			}
			return true
		})
	}
	walk(fn.Body, 0)
}

// checkHotCall applies the call-shaped checks: fmt.Sprint*, string
// conversions, per-iteration make(map), append without preallocation.
func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, loopDepth int, noCap map[types.Object]bool, sanctioned map[*ast.CallExpr]bool) {
	// Conversions: a call whose Fun is a type.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.Info.Types[call.Args[0]].Type
		if isStringType(to) && isByteSlice(from) {
			if sanctioned[call] {
				return // compiler-recognized allocation-free context
			}
			pass.Reportf(call.Pos(),
				"string([]byte) conversion copies the bytes on every call; keep the []byte or reuse a buffer (//loopvet:hot)")
		} else if isByteSlice(to) && isStringType(from) {
			pass.Reportf(call.Pos(),
				"[]byte(string) conversion copies the string on every call; keep the []byte or reuse a buffer (//loopvet:hot)")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if loopDepth > 0 && len(call.Args) >= 1 && isMapType(pass.Info.Types[call.Args[0]].Type) {
				pass.Reportf(call.Pos(),
					"make(map) inside a loop allocates per iteration; allocate once before the loop and clear/reuse it (//loopvet:hot)")
			}
		case "append":
			if loopDepth == 0 || len(call.Args) == 0 {
				return
			}
			target, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.Info.Uses[target]
			if obj == nil {
				obj = pass.Info.Defs[target]
			}
			if obj != nil && noCap[obj] {
				pass.Reportf(call.Pos(),
					"append to %s inside a loop, but %s was declared without capacity; preallocate with make(len/cap) before the loop (//loopvet:hot)",
					target.Name, target.Name)
			}
		}
	}
	if fn, ok := calleeObject(pass.Info, call).(*types.Func); ok &&
		fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(fn.Name() == "Sprintf" || fn.Name() == "Sprint" || fn.Name() == "Sprintln") {
		pass.Reportf(call.Pos(),
			"fmt.%s allocates its result (and boxes arguments) on every call; render with append into a reused buffer (//loopvet:hot)", fn.Name())
	}
}

// collectFreeConversions finds the string([]byte) conversion calls in
// body that sit in a context the compiler compiles without allocating
// the string: switch tags, map index reads, ==/!= comparisons and
// delete keys. Map stores are excluded — an index expression on an
// assignment's left side (or under ++/--) materializes the key.
// ast.Inspect visits parents before children, so assignment left sides
// are recorded before their index expressions are considered.
func collectFreeConversions(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	mark := func(e ast.Expr) {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return
		}
		if isStringType(tv.Type) && isByteSlice(pass.Info.Types[call.Args[0]].Type) {
			out[call] = true
		}
	}
	stores := map[*ast.IndexExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					stores[ix] = true
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				stores[ix] = true
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				mark(n.Tag)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				mark(n.X)
				mark(n.Y)
			}
		case *ast.IndexExpr:
			if !stores[n] && isMapType(pass.Info.Types[n.X].Type) {
				mark(n.Index)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				mark(n.Args[1])
			}
		}
		return true
	})
	return out
}

// collectNoCapSlices finds the local slice variables declared with no
// capacity: `var s []T`, `s := []T{}`, `s := make([]T, 0)`. Reslicing
// (`s := buf[:0]`) and sized makes are the sanctioned preallocations
// and are not collected.
func collectNoCapSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(name *ast.Ident) {
		obj := pass.Info.Defs[name]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); ok {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				name, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isNoCapSliceExpr(pass, n.Rhs[i]) {
					mark(name)
				}
			}
		}
		return true
	})
	return out
}

// isNoCapSliceExpr reports whether e constructs an empty slice with no
// capacity: `[]T{}` or `make([]T, 0)` with no cap argument.
func isNoCapSliceExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		tv, ok := pass.Info.Types[e]
		if !ok {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		tv, ok := pass.Info.Types[e.Args[0]]
		if !ok || tv.Type == nil {
			return false
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			return false
		}
		lit, ok := e.Args[1].(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}

// capturedLocal returns the name of a local variable the literal
// captures from its enclosing function, or "". Package-level
// identifiers need no closure environment and do not count.
func capturedLocal(pass *analysis.Pass, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == pass.Pkg.Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own parameter or local
		}
		name = id.Name
		return false
	})
	return name
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
