package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate: a module-wide static
// call graph over every loaded package, its SCC condensation, and a
// bottom-up summary solver. The driver builds one graph per run and
// hands it to every Pass; analyzers that reason across function
// boundaries (errflow's "always returns nil", determinism's "may reach
// a wall clock") compute per-function summaries over the condensation
// in reverse topological order, so a summary only ever depends on
// summaries that are already final (or on the fixpoint within its own
// cycle).
//
// Soundness stance (over-approximation — the graph may have edges that
// never happen at runtime, but never misses a possible call):
//
//   - Direct calls and concrete method calls resolve to their one
//     static callee.
//   - A call through an interface method gets an edge to that method
//     on EVERY module-local named type whose method set satisfies the
//     interface (value or pointer receiver).
//   - A call through a function value gets an edge to every
//     module-local function or method whose value is taken somewhere
//     in the module and whose (receiver-stripped) signature matches
//     the call site's.
//   - Taking a function's value without calling it is recorded as an
//     EdgeRef, so bottom-up facts can treat "hands out a tainted
//     function" like "calls it".
//   - FuncLit bodies belong to their enclosing declared function: a
//     call inside a closure is an edge out of the function that
//     lexically contains the closure. Closures are not separate nodes.
//
// Known holes, accepted and documented in docs/ANALYSIS.md: calls out
// of the module (stdlib callees have no nodes — analyzers classify
// them directly at the call site), reflection, and go/defer through
// values constructed outside the module.

// CGSource is one loaded package's contribution to BuildCallGraph.
type CGSource struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a known function or a method call
	// on a concrete receiver: exactly one callee.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is one candidate of an interface-dispatched call:
	// the callee is that method on one module-local type implementing
	// the interface.
	EdgeInterface
	// EdgeFuncValue is one candidate of a call through a function
	// value, matched by signature against address-taken functions.
	EdgeFuncValue
	// EdgeRef records that the function's value is taken (assigned,
	// passed, stored) without being called at this site.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "func-value"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// CGEdge is one outgoing edge of a CGNode.
type CGEdge struct {
	Kind   EdgeKind
	Callee *types.Func
	// Site is the *ast.CallExpr for call edges, or the referencing
	// expression for EdgeRef.
	Site ast.Node
}

// CGNode is one declared function or method. FuncLits do not get
// nodes; their bodies are folded into the enclosing declaration.
type CGNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	// Path is the declaring package's import path.
	Path string
	Pkg  *types.Package
	Info *types.Info
	Out  []CGEdge
}

// CallGraph is the module-wide graph. Build it once per driver run
// with BuildCallGraph; it is immutable afterwards and safe to share
// across passes (but not to mutate concurrently).
type CallGraph struct {
	sources []CGSource
	nodes   map[*types.Func]*CGNode
	// order preserves deterministic build order (package, file, decl).
	order []*CGNode
	// named are the module's package-level concrete named types, in
	// build order — the universe for interface dispatch resolution.
	named []*types.Named
	// addrTaken maps a receiver-stripped, package-qualified signature
	// string to the functions of that shape whose value is taken
	// somewhere in the module.
	addrTaken map[string][]*types.Func
	implCache map[*types.Func][]*types.Func
	sccs      [][]*CGNode
}

// BuildCallGraph constructs the graph over the given packages. Sources
// must be type-checked against the same FileSet and importer cache, so
// a types.Object seen from two packages is one identity.
func BuildCallGraph(sources []CGSource) *CallGraph {
	g := &CallGraph{
		sources:   sources,
		nodes:     map[*types.Func]*CGNode{},
		addrTaken: map[string][]*types.Func{},
		implCache: map[*types.Func][]*types.Func{},
	}
	// Phase 1: nodes, the named-type universe, and the address-taken
	// registry. The registry must be complete before any func-value
	// call is resolved, hence the two walks.
	for _, src := range sources {
		for _, file := range src.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := src.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					n := &CGNode{Func: fn, Decl: d, Path: src.Path, Pkg: src.Pkg, Info: src.Info}
					g.nodes[fn] = n
					g.order = append(g.order, n)
					if d.Body != nil {
						g.collectRefs(src.Info, d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							g.collectNamed(src.Info, s)
						case *ast.ValueSpec:
							// Package-level initializers can take a
							// function's address too.
							for _, v := range s.Values {
								g.collectRefs(src.Info, v)
							}
						}
					}
				}
			}
		}
	}
	// Phase 2: edges.
	for _, n := range g.order {
		if n.Decl.Body != nil {
			g.buildEdges(n)
		}
	}
	return g
}

// Node returns the graph node for fn, or nil when fn is not a declared
// module-local function (stdlib, interface method object, closure).
func (g *CallGraph) Node(fn *types.Func) *CGNode { return g.nodes[fn] }

// Nodes returns every node in deterministic build order.
func (g *CallGraph) Nodes() []*CGNode { return g.order }

// Sources returns the packages the graph was built over, in build
// order, so an analyzer can index declarations (annotations, types)
// module-wide once per graph instead of once per package pass.
func (g *CallGraph) Sources() []CGSource { return g.sources }

// collectNamed records a package-level concrete named type as an
// interface-dispatch candidate.
func (g *CallGraph) collectNamed(info *types.Info, spec *ast.TypeSpec) {
	obj, ok := info.Defs[spec.Name].(*types.TypeName)
	if !ok || obj.IsAlias() {
		return
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return // methods only exist on package-level types
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	if named.TypeParams().Len() > 0 {
		return // uninstantiated generics have no concrete method set
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return
	}
	g.named = append(g.named, named)
}

// collectRefs walks an expression or body and registers every function
// whose value is taken (i.e. appears outside call position) in the
// address-taken registry.
func (g *CallGraph) collectRefs(info *types.Info, root ast.Node) {
	walkRefs(info, root, func(fn *types.Func, _ ast.Expr) {
		key := sigKey(fn.Type().(*types.Signature))
		for _, have := range g.addrTaken[key] {
			if have == fn {
				return
			}
		}
		g.addrTaken[key] = append(g.addrTaken[key], fn)
	})
}

// walkRefs calls ref for every expression in root that takes a
// function's value without calling it at that position.
func walkRefs(info *types.Info, root ast.Node, ref func(fn *types.Func, site ast.Expr)) {
	callFuns := map[ast.Expr]bool{}
	selSels := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callFuns[ast.Unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			selSels[n.Sel] = true
			if callFuns[n] {
				return true
			}
			if sel, ok := info.Selections[n]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					if fn, ok := sel.Obj().(*types.Func); ok {
						ref(fn, n)
					}
				}
				return true
			}
			// Qualified identifier: pkg.F used as a value.
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				ref(fn, n)
			}
		case *ast.Ident:
			if selSels[n] || callFuns[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				ref(fn, n)
			}
		}
		return true
	})
}

// buildEdges resolves every call and reference in n's body.
func (g *CallGraph) buildEdges(n *CGNode) {
	info := n.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			g.callEdges(n, info, call)
		}
		return true
	})
	walkRefs(info, n.Decl.Body, func(fn *types.Func, site ast.Expr) {
		n.Out = append(n.Out, CGEdge{Kind: EdgeRef, Callee: fn, Site: site})
	})
}

// callEdges appends the edges for one call expression.
func (g *CallGraph) callEdges(n *CGNode, info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Explicit generic instantiation: f[T](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return // its body is already part of this node
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			n.Out = append(n.Out, CGEdge{Kind: EdgeStatic, Callee: obj, Site: call})
		case *types.Var:
			g.funcValueEdges(n, info, call)
		}
		// *types.Builtin and *types.TypeName (conversion): no edge.
		return
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Qualified identifier: pkg.F(...) or pkg.T(...) or call of
			// a package-level function variable.
			switch obj := info.Uses[fun.Sel].(type) {
			case *types.Func:
				n.Out = append(n.Out, CGEdge{Kind: EdgeStatic, Callee: obj, Site: call})
			case *types.Var:
				g.funcValueEdges(n, info, call)
			}
			return
		}
		switch sel.Kind() {
		case types.MethodVal, types.MethodExpr:
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if recvIsInterface(m) {
				for _, impl := range g.implementations(m) {
					n.Out = append(n.Out, CGEdge{Kind: EdgeInterface, Callee: impl, Site: call})
				}
				// Keep the interface method itself too: a dispatch site
				// is never silently empty, and analyzers can classify
				// stdlib interface methods directly.
				n.Out = append(n.Out, CGEdge{Kind: EdgeInterface, Callee: m, Site: call})
				return
			}
			n.Out = append(n.Out, CGEdge{Kind: EdgeStatic, Callee: m, Site: call})
		case types.FieldVal:
			// Calling a function-typed field.
			g.funcValueEdges(n, info, call)
		}
		return
	default:
		// Computed callee: x[i](), f()(), <-ch()(). If it has a
		// function type, match against the address-taken registry.
		g.funcValueEdges(n, info, call)
	}
}

// funcValueEdges matches a dynamic call against the address-taken
// registry by the call site's signature.
func (g *CallGraph) funcValueEdges(n *CGNode, info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for _, cand := range g.addrTaken[sigKey(sig)] {
		n.Out = append(n.Out, CGEdge{Kind: EdgeFuncValue, Callee: cand, Site: call})
	}
}

// recvIsInterface reports whether m is declared on an interface type —
// i.e. a call through it is dynamic dispatch. This is checked on the
// method object itself, not the selection's receiver, so a method
// promoted from an embedded interface field inside a struct is still
// recognized as dispatch.
func recvIsInterface(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// implementations returns m's concrete implementations across the
// module's named types, for an interface method m.
func (g *CallGraph) implementations(m *types.Func) []*types.Func {
	if impls, ok := g.implCache[m]; ok {
		return impls
	}
	var impls []*types.Func
	sig := m.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if ok {
		for _, named := range g.named {
			// The pointer method set is the superset: it contains both
			// value- and pointer-receiver methods.
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok && !recvIsInterface(fn) {
				impls = append(impls, fn)
			}
		}
	}
	g.implCache[m] = impls
	return impls
}

// sigKey renders a signature with the receiver stripped, parameter
// names dropped, and every named type package-qualified, so a method
// value and a function of the same shape share a key.
func sigKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b []byte
	writeTuple := func(tup *types.Tuple) {
		b = append(b, '(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, types.TypeString(tup.At(i).Type(), qual)...)
		}
		b = append(b, ')')
	}
	b = append(b, "func"...)
	writeTuple(sig.Params())
	if sig.Variadic() {
		b = append(b, "..."...)
	}
	writeTuple(sig.Results())
	return string(b)
}

// SCCs returns the strongly connected components of the graph in
// reverse topological order: every edge out of a component lands in an
// earlier component, so iterating the slice front to back visits
// callees before callers (Tarjan's emission order). EdgeRef edges
// participate — handing a function out is treated like calling it.
func (g *CallGraph) SCCs() [][]*CGNode {
	if g.sccs != nil {
		return g.sccs
	}
	index := make(map[*CGNode]int, len(g.order))
	low := make(map[*CGNode]int, len(g.order))
	onStack := make(map[*CGNode]bool, len(g.order))
	var stack []*CGNode
	next := 0
	var sccs [][]*CGNode
	var strong func(v *CGNode)
	strong = func(v *CGNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range v.Out {
			w := g.nodes[e.Callee]
			if w == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*CGNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range g.order {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	g.sccs = sccs
	return sccs
}

// BottomUp computes a per-function summary over the SCC condensation.
// compute receives one node and a getter for any function's current
// summary (false when none exists yet — callers should treat that as
// the pessimistic bottom). Within an SCC, compute is re-run over the
// members until no summary changes, so mutually recursive functions
// reach a joint fixpoint; across SCCs the reverse topological order
// guarantees callee summaries are final. compute must be monotone in
// its getter for the fixpoint to terminate.
func BottomUp[T comparable](g *CallGraph, compute func(n *CGNode, get func(*types.Func) (T, bool)) T) map[*types.Func]T {
	out := make(map[*types.Func]T, len(g.order))
	get := func(fn *types.Func) (T, bool) {
		v, ok := out[fn]
		return v, ok
	}
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				v := compute(n, get)
				if prev, ok := out[n.Func]; !ok || prev != v {
					out[n.Func] = v
					changed = true
				}
			}
		}
	}
	return out
}
