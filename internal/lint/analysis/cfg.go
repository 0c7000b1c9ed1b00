package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the intra-procedural CFG/dataflow substrate shared by
// the flow-sensitive analyzers (lockcheck's held-lock sets, ctxflow's
// loop inventory). It deliberately stays lightweight: basic blocks
// over go/ast with per-node granularity, a reverse-postorder worklist
// solver for forward set-valued dataflow, and a loop inventory
// recorded while lowering. Function literals are NOT descended into —
// a closure body is its own function and gets its own CFG.
//
// Known simplification: goto is lowered as an edge to the virtual
// exit (the target is not resolved). The repo has no gotos; an
// analyzer that meets one sees a conservative "execution may leave
// here" edge instead of a precise jump.

// Block is one basic block: statements and control expressions that
// execute strictly in sequence. Nodes hold the AST pieces in source
// order; compound statements never appear whole — only their
// straight-line parts (an if's condition, a range's operand) land in a
// block, so walking a node never strays into another block's code.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Loop is one for/range loop recorded during lowering.
type Loop struct {
	// Stmt is the *ast.ForStmt or *ast.RangeStmt.
	Stmt ast.Stmt
	// Head is the block the back edge returns to (the condition block
	// of a for, the range head of a range).
	Head *Block
	// Blocks are the blocks created while lowering the loop —
	// condition, body, post, including any nested loop's blocks.
	Blocks []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Block
	// Exit is the virtual exit block every return and the final
	// fallthrough edge into. It holds no nodes.
	Exit   *Block
	Blocks []*Block
	Loops  []Loop
}

// NewCFG lowers a function body into basic blocks.
func NewCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmt(body, "")
	b.edge(b.cur, g.Exit)
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the iteration order under which forward dataflow
// converges fastest.
func (g *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		post = append(post, b)
	}
	visit(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Join selects the confluence operator of a forward dataflow problem.
type Join int

const (
	// JoinMay unions predecessor states: a fact holds if it holds on
	// ANY path ("may be held"). Its complement is a proof of absence —
	// a fact missing from a may-state holds on NO path.
	JoinMay Join = iota
	// JoinMust intersects predecessor states: a fact holds only if it
	// holds on EVERY path.
	JoinMust
)

// Forward solves a forward set-valued dataflow problem to fixpoint and
// returns each reachable block's in-state. entry seeds the function
// entry; transfer maps a block's in-state to its out-state and must
// not mutate its argument's ownership expectations — it receives a
// private copy and returns any map (which Forward then owns).
func Forward[K comparable](g *CFG, entry map[K]bool, join Join,
	transfer func(b *Block, in map[K]bool) map[K]bool) map[*Block]map[K]bool {
	rpo := g.ReversePostorder()
	in := make(map[*Block]map[K]bool, len(rpo))
	out := make(map[*Block]map[K]bool, len(rpo))
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			var s map[K]bool
			if b == g.Entry {
				s = copySet(entry)
			} else {
				first := true
				for _, p := range b.Preds {
					po, ok := out[p]
					if !ok {
						// Not computed yet (back edge on the first
						// sweep) or unreachable: skipping it is bottom
						// for may and the optimistic start for must.
						continue
					}
					if first {
						s = copySet(po)
						first = false
						continue
					}
					switch join {
					case JoinMay:
						for k := range po {
							s[k] = true
						}
					case JoinMust:
						for k := range s {
							if !po[k] {
								delete(s, k)
							}
						}
					}
				}
				if s == nil {
					s = map[K]bool{}
				}
			}
			// Store unconditionally: an empty state must still register
			// as "computed" so successors stop skipping this pred.
			prev, done := out[b]
			if !setEq(in[b], s) {
				changed = true
			}
			in[b] = s
			o := transfer(b, copySet(s))
			if !done || !setEq(prev, o) {
				changed = true
			}
			out[b] = o
		}
	}
	return in
}

func copySet[K comparable](s map[K]bool) map[K]bool {
	c := make(map[K]bool, len(s))
	for k, v := range s {
		if v {
			c[k] = true
		}
	}
	return c
}

func setEq[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// cfgBuilder lowers statements into blocks.
type cfgBuilder struct {
	g   *CFG
	cur *Block
	// frames tracks enclosing break/continue targets, innermost last.
	frames []branchFrame
	// fallTo is the next case clause while lowering a switch clause.
	fallTo *Block
}

// branchFrame is one enclosing breakable construct.
type branchFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st, "")
		}
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchBody(s.Body, label, true)
	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchBody(s.Body, label, false)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock()
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt,
		// GoStmt, DeferStmt, EmptyStmt: straight-line, no internal
		// blocks. A DeferStmt stays a node in its block so analyzers
		// see (and discount) it in place; its call runs at Exit.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.add(s.Init)
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	after := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body, "")
	b.edge(b.cur, after)
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else, "")
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	b.add(s.Init)
	start := len(b.g.Blocks)
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(s.Cond)
	after := &Block{} // indexed later so it stays out of the loop span
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
	}
	contTo := head
	if post != nil {
		contTo = post
	}
	body := b.newBlock()
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	b.frames = append(b.frames, branchFrame{label: label, breakTo: after, continueTo: contTo})
	b.cur = body
	b.stmt(s.Body, "")
	b.frames = b.frames[:len(b.frames)-1]
	if post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.add(s.Post)
	}
	b.edge(b.cur, head)
	b.g.Loops = append(b.g.Loops, Loop{Stmt: s, Head: head, Blocks: b.g.Blocks[start:len(b.g.Blocks):len(b.g.Blocks)]})
	after.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, after)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	start := len(b.g.Blocks)
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	// Only the ranged operand lives in the head; Key/Value are binding
	// positions, not reads.
	b.add(s.X)
	after := &Block{}
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after) // a range over an empty operand skips the body
	b.frames = append(b.frames, branchFrame{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmt(s.Body, "")
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, head)
	b.g.Loops = append(b.g.Loops, Loop{Stmt: s, Head: head, Blocks: b.g.Blocks[start:len(b.g.Blocks):len(b.g.Blocks)]})
	after.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, after)
	b.cur = after
}

// switchBody lowers the case clauses of a switch or type switch.
// allowFallthrough wires the fallthrough chain (expression switches
// only).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, allowFallthrough bool) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, branchFrame{label: label, breakTo: after})
	var clauses []*ast.CaseClause
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	savedFall := b.fallTo
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallTo = nil
		if allowFallthrough && i+1 < len(clauses) {
			b.fallTo = blocks[i+1]
		}
		for _, st := range cc.Body {
			b.stmt(st, "")
		}
		b.edge(b.cur, after)
	}
	b.fallTo = savedFall
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, branchFrame{label: label, breakTo: after})
	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		b.add(cc.Comm)
		for _, inner := range cc.Body {
			b.stmt(inner, "")
		}
		b.edge(b.cur, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findFrame(label, false); t != nil {
			b.edge(b.cur, t)
		} else {
			b.edge(b.cur, b.g.Exit)
		}
	case token.CONTINUE:
		if t := b.findFrame(label, true); t != nil {
			b.edge(b.cur, t)
		} else {
			b.edge(b.cur, b.g.Exit)
		}
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.edge(b.cur, b.fallTo)
		} else {
			b.edge(b.cur, b.g.Exit)
		}
	case token.GOTO:
		// Unresolved: conservatively, execution may leave here.
		b.edge(b.cur, b.g.Exit)
	}
	b.cur = b.newBlock() // anything after an unconditional branch is unreachable
}

// findFrame resolves a break/continue target. wantContinue restricts
// the search to loop frames.
func (b *cfgBuilder) findFrame(label string, wantContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if wantContinue && f.continueTo == nil {
			continue
		}
		if label != "" && f.label != label {
			continue
		}
		if wantContinue {
			return f.continueTo
		}
		return f.breakTo
	}
	return nil
}
