package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/mssn/loopscope/internal/lint/analysis"
)

// wallClockFuncs are the time-package functions that read the machine
// clock. Simulated time in this repo is integer milliseconds from run
// start; a wall-clock read makes a run irreproducible from its seed.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// timerFuncs are the time-package entry points that schedule against
// the machine clock. A timer or ticker couples the run to real elapsed
// time, which is as irreproducible as reading time.Now directly.
var timerFuncs = map[string]bool{
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
}

// seededRandFuncs are the only math/rand entry points that construct an
// explicitly seeded generator. Everything else at package level draws
// from the process-global source.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// detSrc is one taint bit of a function summary: whether the function
// may reach the sink, through which next module-local hop (nil when it
// calls the sink itself), and which stdlib function the chain ends in.
// Storing only the next hop — not a rendered chain — keeps the summary
// a small comparable value, so the SCC fixpoint in BottomUp
// terminates; the full chain is reconstructed at diagnostic time by
// following via pointers.
type detSrc struct {
	on   bool
	via  *types.Func
	sink *types.Func
}

// detSummary is a function's interprocedural determinism summary.
type detSummary struct {
	wall, timer, grand detSrc
}

func (s detSummary) bit(k detKind) detSrc {
	switch k {
	case detWall:
		return s.wall
	case detTimer:
		return s.timer
	}
	return s.grand
}

type detKind uint8

const (
	detWall detKind = iota
	detTimer
	detRand
)

func (k detKind) String() string {
	switch k {
	case detWall:
		return "the wall clock"
	case detTimer:
		return "a machine-clock timer"
	}
	return "the global math/rand source"
}

var detKinds = [...]detKind{detWall, detTimer, detRand}

// Determinism returns the analyzer enforcing DESIGN.md §Determinism:
// inside the scoped packages, no wall-clock reads, no global math/rand
// draws, and no hard-coded RNG seeds — every generator must trace to a
// config/seed parameter so runs replay bit-for-bit.
//
// On top of the syntactic rules, the analyzer computes a module-wide
// taint summary over the call graph: a call (or function-value
// reference) from a scoped package to a module-local function that may
// transitively reach time.Now, a real timer, or the global math/rand
// source is a finding, no matter how many packages deep the sink is.
// A helper whose clock use is provably output-neutral is annotated at
// its declaration:
//
//	//loopvet:detsafe <reason>
//
// which clears its summary (the reason is mandatory; a bare directive
// is itself a finding). The waiver grammar at call sites is unchanged.
//
// scope entries are import-path suffixes (e.g. "internal/uesim"); a
// package is checked when its path equals an entry or ends in
// "/"+entry.
func Determinism(scope []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "determinism",
		Doc: "forbid wall-clock reads (time.Now/Since/Until), real timers " +
			"(time.NewTimer/NewTicker/Tick/After/AfterFunc), global math/rand draws, " +
			"constant RNG seeds, and Gosched-free time.Sleep busy-wait loops in " +
			"simulation/analysis packages — directly or through any module-local call " +
			"chain (interprocedural taint over the call graph, cleared per function by " +
			"//loopvet:detsafe <reason>); every source of randomness must be " +
			"constructed from an explicit seed parameter (DESIGN.md §Determinism)",
	}
	taint := perGraph(solveDetTaint)
	a.Run = func(pass *analysis.Pass) error {
		// Directive hygiene is checked everywhere, scoped or not: a
		// reasonless //loopvet:detsafe must not silently clear taint.
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if dir, found := detsafeDirective(fd); found && dir == "" {
					pass.Reportf(fd.Pos(),
						"//loopvet:detsafe needs a reason: say why this function's clock/rand use cannot change study output")
				}
			}
		}
		if !pathInScope(pass.Path, scope) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkSelector(pass, n)
				case *ast.CallExpr:
					checkConstSeed(pass, n)
				case *ast.ForStmt:
					checkBusyWait(pass, n.Body)
				case *ast.RangeStmt:
					checkBusyWait(pass, n.Body)
				}
				return true
			})
		}
		checkDeepTaint(pass, scope, taint(pass.CallGraph))
		return nil
	}
	return a
}

// checkDeepTaint reports calls and references from this (scoped)
// package to tainted module-local functions declared outside the
// scope. In-scope callees are skipped: their own sink sites are
// flagged directly, so the finding lands where the fix belongs.
func checkDeepTaint(pass *analysis.Pass, scope []string, sums map[*types.Func]detSummary) {
	type siteKind struct {
		pos  token.Pos
		kind detKind
	}
	reported := map[siteKind]bool{}
	for _, n := range pass.CallGraph.Nodes() {
		if n.Path != pass.Path {
			continue
		}
		for _, e := range n.Out {
			callee := pass.CallGraph.Node(e.Callee)
			if callee == nil || pathInScope(callee.Path, scope) {
				continue
			}
			s := sums[e.Callee]
			for _, k := range detKinds {
				src := s.bit(k)
				if !src.on {
					continue
				}
				key := siteKind{e.Site.Pos(), k}
				if reported[key] {
					continue
				}
				reported[key] = true
				verb := "call to"
				switch e.Kind {
				case analysis.EdgeRef:
					verb = "reference to"
				case analysis.EdgeInterface:
					verb = "dispatch may reach"
				case analysis.EdgeFuncValue:
					verb = "call through a function value may reach"
				}
				pass.Reportf(e.Site.Pos(),
					"%s %s may reach %s (%s); simulation packages must stay deterministic — pass the value in, or annotate the callee with //loopvet:detsafe <reason> (DESIGN.md §Determinism)",
					verb, shortFunc(e.Callee), k, renderChain(sums, e.Callee, k))
			}
		}
	}
}

// solveDetTaint computes the module-wide taint summaries bottom-up.
// Sinks are classified at the edge (stdlib callees have no nodes);
// module-local callees contribute their own summaries; a function
// annotated //loopvet:detsafe with a reason contributes nothing.
func solveDetTaint(g *analysis.CallGraph) map[*types.Func]detSummary {
	return analysis.BottomUp(g, func(n *analysis.CGNode, get func(*types.Func) (detSummary, bool)) detSummary {
		if reason, found := detsafeDirective(n.Decl); found && reason != "" {
			return detSummary{}
		}
		s, _ := get(n.Func) // keep earlier bits so via/sink stay stable across sweeps
		set := func(dst *detSrc, src detSrc) {
			if !dst.on {
				*dst = src
			}
		}
		for _, e := range n.Out {
			if k, ok := detSinkKind(e.Callee); ok {
				switch k {
				case detWall:
					set(&s.wall, detSrc{on: true, sink: e.Callee})
				case detTimer:
					set(&s.timer, detSrc{on: true, sink: e.Callee})
				case detRand:
					set(&s.grand, detSrc{on: true, sink: e.Callee})
				}
				continue
			}
			if g.Node(e.Callee) == nil {
				continue
			}
			cs, _ := get(e.Callee)
			if cs.wall.on {
				set(&s.wall, detSrc{on: true, via: e.Callee, sink: cs.wall.sink})
			}
			if cs.timer.on {
				set(&s.timer, detSrc{on: true, via: e.Callee, sink: cs.timer.sink})
			}
			if cs.grand.on {
				set(&s.grand, detSrc{on: true, via: e.Callee, sink: cs.grand.sink})
			}
		}
		return s
	})
}

// detSinkKind classifies a callee as a non-determinism sink.
func detSinkKind(fn *types.Func) (detKind, bool) {
	if fn.Pkg() == nil {
		return 0, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return 0, false // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return detWall, true
		}
		if timerFuncs[fn.Name()] {
			return detTimer, true
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			return detRand, true
		}
	}
	return 0, false
}

// detsafeDirective scans a declaration's doc comment for the
// //loopvet:detsafe directive, returning its reason text.
func detsafeDirective(decl *ast.FuncDecl) (reason string, found bool) {
	if decl == nil || decl.Doc == nil {
		return "", false
	}
	for _, c := range decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//loopvet:detsafe")
		if !ok {
			continue
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// shortFunc renders fn as pkg.Name or pkg.Recv.Name.
func shortFunc(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// renderChain reconstructs the call chain from fn to the sink by
// following via pointers, with a depth guard against summary cycles
// inside an SCC.
func renderChain(sums map[*types.Func]detSummary, fn *types.Func, k detKind) string {
	parts := []string{shortFunc(fn)}
	sink := sums[fn].bit(k).sink
	cur := fn
	for depth := 0; depth < 32; depth++ {
		src := sums[cur].bit(k)
		if !src.on || src.via == nil {
			break
		}
		parts = append(parts, shortFunc(src.via))
		cur = src.via
	}
	if sink != nil {
		parts = append(parts, shortFunc(sink))
	}
	return strings.Join(parts, " -> ")
}

// checkBusyWait flags loops that spin on time.Sleep without ever
// yielding through runtime.Gosched: in a simulated-time package such a
// loop couples progress to the machine scheduler (how much real time a
// sleep actually takes), so the run's event interleaving is not
// reproducible from its seed. Polling loops that truly must sleep
// belong outside the determinism scope; inside it, the loop must
// either advance simulated time or yield deterministically.
func checkBusyWait(pass *analysis.Pass, body *ast.BlockStmt) {
	var sleep *ast.CallExpr
	yields := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false // nested loops are judged on their own bodies
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncObj(pass, sel)
			if !ok {
				return true
			}
			if pkgPath == "time" && name == "Sleep" && sleep == nil {
				sleep = n
			}
			if pkgPath == "runtime" && name == "Gosched" {
				yields = true
			}
		}
		return true
	})
	if sleep != nil && !yields {
		pass.Reportf(sleep.Pos(),
			"time.Sleep busy-wait loop without runtime.Gosched couples the run to the machine scheduler; advance simulated time, or yield with runtime.Gosched (DESIGN.md §Determinism)")
	}
}

// pathInScope reports whether the package path matches a scope suffix.
func pathInScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// pkgFuncObj resolves sel to (package path, name) when it denotes a
// package-level function of an imported package.
func pkgFuncObj(pass *analysis.Pass, sel *ast.SelectorExpr) (string, string, bool) {
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	pkgPath, name, ok := pkgFuncObj(pass, sel)
	if !ok {
		return
	}
	switch pkgPath {
	case "time":
		if wallClockFuncs[name] {
			pass.Reportf(sel.Pos(),
				"wall-clock read time.%s breaks bit-reproducible replay; use simulated time or pass a timestamp in (DESIGN.md §Determinism)", name)
		}
		if timerFuncs[name] {
			pass.Reportf(sel.Pos(),
				"time.%s schedules against the machine clock; advance simulated time explicitly instead of arming real timers (DESIGN.md §Determinism)", name)
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[name] {
			pass.Reportf(sel.Pos(),
				"global rand.%s draws from the process-wide source; build rand.New(rand.NewSource(seed)) from the run's seed instead (DESIGN.md §Determinism)", name)
		}
	}
}

// checkConstSeed flags rand.NewSource(<constant>): a seed that cannot
// be traced to a config parameter defeats seed-sweep experiments.
func checkConstSeed(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, name, ok := pkgFuncObj(pass, sel)
	if !ok || name != "NewSource" {
		return
	}
	if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil {
		pass.Reportf(call.Pos(),
			"hard-coded RNG seed %s; derive the seed from the run's config so experiments stay sweepable (DESIGN.md §Determinism)", tv.Value)
	}
}
