package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildCFG parses src as a file, finds the function named name, and
// lowers its body.
func buildCFG(t *testing.T, src, name string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if ok && fn.Name.Name == name {
			return NewCFG(fn.Body)
		}
	}
	t.Fatalf("no function %q in source", name)
	return nil
}

// containsCall reports whether the block holds a call to the named
// function (identifier calls only — enough for these fixtures).
func containsCall(b *Block, name string) bool {
	for _, n := range b.Nodes {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// findBlock returns the unique reachable block containing a call to
// name.
func findBlock(t *testing.T, g *CFG, name string) *Block {
	t.Helper()
	var hit *Block
	for _, b := range g.ReversePostorder() {
		if containsCall(b, name) {
			if hit != nil {
				t.Fatalf("call to %s appears in more than one block", name)
			}
			hit = b
		}
	}
	if hit == nil {
		t.Fatalf("no reachable block calls %s", name)
	}
	return hit
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

const branchSrc = `package p
func a()
func b()
func c()
func f(x bool) {
	if x {
		a()
	} else {
		b()
	}
	c()
}`

// TestCFGBranch checks the diamond shape of if/else: the condition
// block forks to both arms and both arms join before the follow-on
// statement.
func TestCFGBranch(t *testing.T) {
	g := buildCFG(t, branchSrc, "f")
	ab := findBlock(t, g, "a")
	bb := findBlock(t, g, "b")
	cb := findBlock(t, g, "c")
	if ab == bb || ab == cb {
		t.Fatal("branch arms and join collapsed into one block")
	}
	cond := g.Entry
	if !hasEdge(cond, ab) || !hasEdge(cond, bb) {
		t.Errorf("condition block does not fork to both arms")
	}
	if !hasEdge(ab, cb) || !hasEdge(bb, cb) {
		t.Errorf("arms do not rejoin at the follow-on block")
	}
	if hasEdge(cond, cb) {
		t.Errorf("if with an else must not edge straight to the join")
	}
}

const loopSrc = `package p
func body()
func after()
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 2 {
			break
		}
		body()
	}
	after()
}`

// TestCFGLoop checks the loop shape: a back edge to the condition
// block, a loop inventory entry spanning the body, and break wired to
// the block after the loop.
func TestCFGLoop(t *testing.T) {
	g := buildCFG(t, loopSrc, "f")
	if len(g.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(g.Loops))
	}
	loop := g.Loops[0]
	if _, ok := loop.Stmt.(*ast.ForStmt); !ok {
		t.Errorf("loop stmt is %T, want *ast.ForStmt", loop.Stmt)
	}
	backEdge := false
	for _, blk := range loop.Blocks {
		if hasEdge(blk, loop.Head) {
			backEdge = true
		}
	}
	if !backEdge {
		t.Error("no back edge to the loop head")
	}
	bodyBlk := findBlock(t, g, "body")
	inLoop := false
	for _, blk := range loop.Blocks {
		if blk == bodyBlk {
			inLoop = true
		}
	}
	if !inLoop {
		t.Error("loop body block missing from Loop.Blocks")
	}
	afterBlk := findBlock(t, g, "after")
	for _, blk := range loop.Blocks {
		if blk == afterBlk {
			t.Error("block after the loop recorded inside Loop.Blocks")
		}
	}
	// The break statement's block must edge to the after-loop block.
	breakReaches := false
	for _, p := range afterBlk.Preds {
		for _, lb := range loop.Blocks {
			if p == lb {
				breakReaches = true
			}
		}
	}
	if !breakReaches {
		t.Error("break does not edge to the block after the loop")
	}
}

const rangeSrc = `package p
func body()
func f(xs []int) {
	for range xs {
		body()
	}
}`

// TestCFGRange checks that a range loop records its inventory entry
// and that the head can skip the body entirely.
func TestCFGRange(t *testing.T) {
	g := buildCFG(t, rangeSrc, "f")
	if len(g.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(g.Loops))
	}
	loop := g.Loops[0]
	if _, ok := loop.Stmt.(*ast.RangeStmt); !ok {
		t.Errorf("loop stmt is %T, want *ast.RangeStmt", loop.Stmt)
	}
	if len(loop.Head.Succs) < 2 {
		t.Errorf("range head has %d successors, want body + skip edge", len(loop.Head.Succs))
	}
}

const deferSrc = `package p
func cleanup()
func other()
func work()
func f() {
	defer cleanup()
	defer other()
	work()
}`

// TestCFGDefer checks that the defer statements stay visible in their
// block, in source order: lockcheck reads a deferred Unlock in place.
func TestCFGDefer(t *testing.T) {
	g := buildCFG(t, deferSrc, "f")
	var deferred []string
	for _, n := range g.Entry.Nodes {
		if d, ok := n.(*ast.DeferStmt); ok {
			if id, ok := d.Call.Fun.(*ast.Ident); ok {
				deferred = append(deferred, id.Name)
			}
		}
	}
	if len(deferred) != 2 || deferred[0] != "cleanup" || deferred[1] != "other" {
		t.Errorf("defer statements in the entry block = %v, want [cleanup other]", deferred)
	}
}

const returnSrc = `package p
func a()
func b()
func f(x bool) {
	if x {
		a()
		return
	}
	b()
}`

// TestCFGReturn checks that return edges to the virtual exit and that
// code after it in the same arm is not merged into the other arm.
func TestCFGReturn(t *testing.T) {
	g := buildCFG(t, returnSrc, "f")
	ab := findBlock(t, g, "a")
	if !hasEdge(ab, g.Exit) {
		t.Error("return arm does not edge to the virtual exit")
	}
	bb := findBlock(t, g, "b")
	if hasEdge(ab, bb) {
		t.Error("returning arm must not fall through into the other arm")
	}
}

const solverSrc = `package p
func gen()
func sink()
func f(x bool) {
	if x {
		gen()
	}
	sink()
}`

// TestForwardMayMust runs the solver over a half-diamond: a fact
// generated on one arm survives a may join and dies at a must join.
func TestForwardMayMust(t *testing.T) {
	g := buildCFG(t, solverSrc, "f")
	transfer := func(b *Block, in map[string]bool) map[string]bool {
		if containsCall(b, "gen") {
			in["g"] = true
		}
		return in
	}
	sinkBlk := findBlock(t, g, "sink")
	may := Forward(g, map[string]bool{}, JoinMay, transfer)
	if !may[sinkBlk]["g"] {
		t.Error("may analysis lost the fact generated on one arm")
	}
	must := Forward(g, map[string]bool{}, JoinMust, transfer)
	if must[sinkBlk]["g"] {
		t.Error("must analysis kept a fact that only one arm generates")
	}
	// Entry seeding: a fact present at entry and never killed reaches
	// the sink under both joins.
	seeded := Forward(g, map[string]bool{"e": true}, JoinMust, transfer)
	if !seeded[sinkBlk]["e"] {
		t.Error("entry-seeded fact did not reach the join under must")
	}
}

const loopFixpointSrc = `package p
func gen()
func sink()
func f(n int) {
	for i := 0; i < n; i++ {
		sink()
		gen()
	}
}`

// TestForwardLoopFixpoint checks convergence around a back edge: the
// fact generated late in the body reaches the body's own in-state on
// the next iteration under may, but not under must (the zero-trip path
// bypasses the body).
func TestForwardLoopFixpoint(t *testing.T) {
	g := buildCFG(t, loopFixpointSrc, "f")
	transfer := func(b *Block, in map[string]bool) map[string]bool {
		if containsCall(b, "gen") {
			in["g"] = true
		}
		return in
	}
	sinkBlk := findBlock(t, g, "sink")
	may := Forward(g, map[string]bool{}, JoinMay, transfer)
	if !may[sinkBlk]["g"] {
		t.Error("fact did not propagate around the back edge under may")
	}
	must := Forward(g, map[string]bool{}, JoinMust, transfer)
	if must[sinkBlk]["g"] {
		t.Error("must analysis ignored the first-iteration path without the fact")
	}
}

const switchSrc = `package p
func a()
func b()
func after()
func f(x int) {
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	}
	after()
}`

// TestCFGSwitchFallthrough checks clause wiring: the head forks to
// every clause (and past them without a default), and fallthrough
// edges into the next clause.
func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(t, switchSrc, "f")
	ab := findBlock(t, g, "a")
	bb := findBlock(t, g, "b")
	afterBlk := findBlock(t, g, "after")
	if !hasEdge(ab, bb) {
		t.Error("fallthrough does not edge into the next clause")
	}
	if !hasEdge(g.Entry, ab) || !hasEdge(g.Entry, bb) {
		t.Error("switch head does not fork to every clause")
	}
	if !hasEdge(g.Entry, afterBlk) {
		t.Error("switch without default must edge past the clauses")
	}
}

// TestCFGNoFuncLitDescent checks the builder treats a closure as an
// opaque value: its body's statements do not leak into the enclosing
// function's blocks.
func TestCFGNoFuncLitDescent(t *testing.T) {
	src := `package p
func inside()
func f() {
	g := func() {
		for {
			inside()
		}
	}
	g()
}`
	g := buildCFG(t, src, "f")
	if len(g.Loops) != 0 {
		t.Errorf("closure-internal loop leaked into the enclosing CFG: %d loops", len(g.Loops))
	}
	// The assignment node itself still appears (the closure is a value),
	// so a textual scan of the entry block sees it — but as one node.
	if len(g.ReversePostorder()) != 2 { // entry + exit
		t.Errorf("closure body split the enclosing function into %d blocks", len(g.ReversePostorder()))
	}
}

// TestCFGStraightLine pins the degenerate shape: one entry block plus
// the virtual exit.
func TestCFGStraightLine(t *testing.T) {
	src := `package p
func a()
func f() {
	a()
	a()
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Decls[1].(*ast.FuncDecl)
	g := NewCFG(fn.Body)
	rpo := g.ReversePostorder()
	if len(rpo) != 2 || rpo[0] != g.Entry || rpo[1] != g.Exit {
		t.Errorf("straight-line function lowered to %d reachable blocks", len(rpo))
	}
	if len(g.Entry.Nodes) != 2 {
		t.Errorf("entry block holds %d nodes, want 2", len(g.Entry.Nodes))
	}
}
