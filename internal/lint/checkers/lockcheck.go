package checkers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// lockProto is a method's declared lock protocol: Requires lists
// mutexes of the receiver the caller must already hold, Locks lists
// mutexes the method acquires itself (so calling it with one held is a
// self-deadlock).
type lockProto struct {
	Requires []string
	Locks    []string
}

// lockIndex holds every lock annotation of the packages a call graph
// was built over, so a contract declared in one package is checked at
// call sites in its importers.
type lockIndex struct {
	// guards maps a `guarded by:` field to the name of its mutex.
	guards map[types.Object]string
	// protos maps a `requires:`/`locks:` method to its protocol.
	protos map[types.Object]lockProto
	// malformed holds the annotation errors of each package, by import
	// path; only that package's own pass reports them.
	malformed map[string][]analysis.Diagnostic
}

// LockCheck returns the annotation-driven mutex-discipline analyzer.
// The annotations are the contract:
//
//	type runner struct {
//		mu      sync.Mutex
//		failErr error // guarded by: mu
//	}
//
//	// requires: mu
//	func (r *runner) failLocked(err error) { ... }
//
//	// locks: mu
//	func (r *runner) fail(err error) { ... }
//
// and the checks are flow-sensitive over the CFG layer:
//
//   - an access to a guarded field is flagged when the mutex is
//     provably not held — absent from the may-held set, i.e. held on
//     NO path to the access. Anything weaker would false-positive on
//     branches; anything unsound here is exactly the failLocked race
//     the PR 6 review caught by hand.
//   - a call to a `requires: mu` method is flagged under the same
//     proof.
//   - a call to a `locks: mu` method while mu is must-held (held on
//     EVERY path) is flagged as a self-deadlock.
//
// Lock sets are keyed textually ("r.mu"), so discipline is tracked per
// receiver expression; RLock/RUnlock count as Lock/Unlock (reads under
// RLock are sanctioned, and write-vs-read discipline stays a human
// review concern). A deferred Unlock does not release mid-function —
// defer bodies are skipped — and function literals are analyzed as
// their own functions with an empty entry lock set.
func LockCheck() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockcheck",
		Doc: "enforce `guarded by:` / `requires:` / `locks:` mutex annotations: guarded " +
			"fields and requires-methods only on paths where the mutex may be held, no " +
			"calls into locks-methods while already holding",
	}
	index := perGraph(indexLockAnnotations)
	a.Run = func(pass *analysis.Pass) error {
		idx := index(pass.CallGraph)
		for _, d := range idx.malformed[pass.Path] {
			pass.Reportf(d.Pos, "%s", d.Message)
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				entry := map[string]bool{}
				if recv := receiverName(fn); recv != "" {
					for _, mu := range idx.protos[pass.Info.Defs[fn.Name]].Requires {
						entry[recv+"."+mu] = true
					}
				}
				checkLockBody(pass, idx, fn.Body, entry)
			}
		}
		return nil
	}
	return a
}

// indexLockAnnotations parses and validates the annotations of every
// package the graph was built over.
func indexLockAnnotations(g *analysis.CallGraph) *lockIndex {
	idx := &lockIndex{
		guards:    map[types.Object]string{},
		protos:    map[types.Object]lockProto{},
		malformed: map[string][]analysis.Diagnostic{},
	}
	for _, src := range g.Sources() {
		report := func(pos token.Pos, format string, args ...any) {
			idx.malformed[src.Path] = append(idx.malformed[src.Path],
				analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
		}
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						idx.guardedFields(src.Info, report, ts.Name.Name, st)
					}
				case *ast.FuncDecl:
					idx.methodAnnotations(src.Info, report, d)
				}
			}
		}
	}
	return idx
}

// annotationValue extracts the value of a `<key>: <names>` annotation
// line from a comment group, returning "" when absent. The value runs
// to the first character that cannot be part of a name list, so
// trailing prose (`guarded by: mu — why`) is ignored.
func annotationValue(groups []*ast.CommentGroup, key string) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, key+":")
			if !ok {
				continue
			}
			end := len(rest)
			for i, r := range rest {
				if r == '_' || r == ',' || r == ' ' || r == '\t' ||
					(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
					continue
				}
				end = i
				break
			}
			return strings.TrimSpace(rest[:end])
		}
	}
	return ""
}

// guardedFields indexes every `guarded by:` field of st, validating
// that the named mutex is a sibling field of a sync mutex type.
func (idx *lockIndex) guardedFields(info *types.Info, report func(token.Pos, string, ...any), structName string, st *ast.StructType) {
	mutexes := map[string]bool{}
	for _, field := range st.Fields.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isMutexType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			mutexes[name.Name] = true
		}
	}
	for _, field := range st.Fields.List {
		mu := annotationValue([]*ast.CommentGroup{field.Doc, field.Comment}, "guarded by")
		if mu == "" {
			continue
		}
		if !mutexes[mu] {
			report(field.Pos(),
				"guarded by: %s names no sync.Mutex/RWMutex field of struct %s", mu, structName)
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				idx.guards[obj] = mu
			}
		}
	}
}

// methodAnnotations indexes the protocol of a method carrying
// `requires:` / `locks:` doc lines, validating the mutex names against
// the receiver's struct fields.
func (idx *lockIndex) methodAnnotations(info *types.Info, report func(token.Pos, string, ...any), fn *ast.FuncDecl) {
	requires := annotationValue([]*ast.CommentGroup{fn.Doc}, "requires")
	locks := annotationValue([]*ast.CommentGroup{fn.Doc}, "locks")
	if requires == "" && locks == "" {
		return
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		report(fn.Pos(),
			"requires:/locks: annotation on %s, which is not a method; lock protocol annotations describe a receiver's mutexes", fn.Name.Name)
		return
	}
	fields := receiverMutexes(info, fn)
	proto := lockProto{}
	for _, mu := range splitNames(requires) {
		if !fields[mu] {
			report(fn.Pos(), "requires: %s names no sync.Mutex/RWMutex field of %s's receiver", mu, fn.Name.Name)
			continue
		}
		proto.Requires = append(proto.Requires, mu)
	}
	for _, mu := range splitNames(locks) {
		if !fields[mu] {
			report(fn.Pos(), "locks: %s names no sync.Mutex/RWMutex field of %s's receiver", mu, fn.Name.Name)
			continue
		}
		proto.Locks = append(proto.Locks, mu)
	}
	if len(proto.Requires) == 0 && len(proto.Locks) == 0 {
		return
	}
	if obj := info.Defs[fn.Name]; obj != nil {
		idx.protos[obj] = proto
	}
}

// splitNames splits a comma-separated annotation value.
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// receiverMutexes returns the mutex-typed field names of fn's receiver
// struct.
func receiverMutexes(info *types.Info, fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return out
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out[st.Field(i).Name()] = true
		}
	}
	return out
}

// receiverName returns the name binding fn's receiver, or "".
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// checkLockBody analyzes one function body (or function literal) under
// the given entry lock set: solves the may- and must-held dataflow
// problems over the CFG, then replays each block node by node,
// checking accesses and calls against the in-flight sets. Function
// literals encountered on the way are queued and analyzed with an
// empty entry set.
func checkLockBody(pass *analysis.Pass, idx *lockIndex, body *ast.BlockStmt, entry map[string]bool) {
	g := analysis.NewCFG(body)
	transfer := func(b *analysis.Block, in map[string]bool) map[string]bool {
		for _, node := range b.Nodes {
			applyLockOps(pass, node, in, nil)
		}
		return in
	}
	may := analysis.Forward(g, entry, analysis.JoinMay, transfer)
	must := analysis.Forward(g, entry, analysis.JoinMust, transfer)
	var lits []*ast.FuncLit
	for _, b := range g.ReversePostorder() {
		mayState := copyKeys(may[b])
		mustState := copyKeys(must[b])
		for _, node := range b.Nodes {
			// The checker applies each lock op to both sets as the walk
			// meets it, so checks later in the node see the updated state.
			lits = applyLockOps(pass, node, mayState, &lockChecker{
				pass: pass, idx: idx, may: mayState, must: mustState, lits: lits,
			})
		}
	}
	for _, lit := range lits {
		checkLockBody(pass, idx, lit.Body, map[string]bool{})
	}
}

func copyKeys(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			c[k] = true
		}
	}
	return c
}

// lockChecker carries the in-flight states of one block replay.
type lockChecker struct {
	pass *analysis.Pass
	idx  *lockIndex
	may  map[string]bool
	must map[string]bool
	lits []*ast.FuncLit
}

// applyLockOps walks one block node in source order, applying
// Lock/Unlock effects to state. With a non-nil checker it also runs
// the discipline checks and collects function literals; it returns the
// checker's literal list (or lits unchanged when checker is nil).
// Defer bodies are skipped entirely: their effects happen at exit.
func applyLockOps(pass *analysis.Pass, node ast.Node, state map[string]bool, ck *lockChecker) []*ast.FuncLit {
	var out []*ast.FuncLit
	if ck != nil {
		out = ck.lits
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			if ck != nil {
				out = append(out, n)
			}
			return false
		case *ast.CallExpr:
			if mu, op, ok := mutexOp(pass, n); ok {
				switch op {
				case "Lock", "RLock":
					state[mu] = true
				case "Unlock", "RUnlock":
					delete(state, mu)
				}
				if ck != nil {
					// Keep must in step for lock ops seen before later
					// checks inside this same node.
					switch op {
					case "Lock", "RLock":
						ck.must[mu] = true
					case "Unlock", "RUnlock":
						delete(ck.must, mu)
					}
				}
				return true
			}
			if ck != nil {
				ck.checkCall(n)
			}
		case *ast.SelectorExpr:
			if ck != nil {
				ck.checkFieldAccess(n)
			}
		}
		return true
	})
	return out
}

// mutexOp matches a call of the form <expr>.<mu>.Lock() (or RLock /
// Unlock / RUnlock) on a sync mutex and returns the textual lock key
// and the operation name.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return "", "", false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return "", "", false
	}
	return types.ExprString(sel.X), op, true
}

// checkFieldAccess flags access to a guarded field when its mutex is
// provably not held (absent from the may-held set).
func (ck *lockChecker) checkFieldAccess(sel *ast.SelectorExpr) {
	obj := ck.pass.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	mu, ok := ck.idx.guards[obj]
	if !ok {
		return
	}
	key := types.ExprString(sel.X) + "." + mu
	if ck.may[key] {
		return
	}
	ck.pass.Reportf(sel.Pos(),
		"%s is guarded by %s, which is not held here on any path; hold %s.%s (or call through a requires-annotated method)",
		types.ExprString(sel), mu, types.ExprString(sel.X), mu)
}

// checkCall flags calls that break a callee's declared lock protocol:
// requires-mutex not held on any path, or locks-mutex held on every
// path (self-deadlock).
func (ck *lockChecker) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := ck.pass.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	proto, ok := ck.idx.protos[obj]
	if !ok {
		return
	}
	recv := types.ExprString(sel.X)
	for _, mu := range proto.Requires {
		key := recv + "." + mu
		if !ck.may[key] {
			ck.pass.Reportf(call.Pos(),
				"%s requires %s.%s held, and it is not held here on any path", sel.Sel.Name, recv, mu)
		}
	}
	for _, mu := range proto.Locks {
		key := recv + "." + mu
		if ck.must[key] {
			ck.pass.Reportf(call.Pos(),
				"%s locks %s.%s, which is already held here on every path — self-deadlock", sel.Sel.Name, recv, mu)
		}
	}
}
