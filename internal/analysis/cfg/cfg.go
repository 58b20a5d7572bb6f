// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and runs forward-dataflow fixpoints over them. It is the
// substrate of sledvet's dataflow analyzers (lockbalance, ctxexit,
// hotalloc, spanpair): where the original six analyzers match syntax, these
// prove path properties — "the lock is released on every return", "the
// goroutine can terminate", "no allocation reaches a successful return".
//
// The design follows golang.org/x/tools/go/cfg, specialized to what the
// analyzers need and implemented on the standard library alone:
//
//   - A CFG is a list of basic blocks. Block 0 is the entry; a single
//     virtual Exit block (no nodes) collects every way out of the function
//     — explicit returns, falling off the end, and calls that never return
//     (panic, os.Exit, log.Fatal*, runtime.Goexit). Edges into Exit from a
//     panicking block are distinguishable via Block.Panics, because most
//     invariants ("unlock before return") deliberately do not bind
//     crash paths.
//   - Every statement and control expression lands in exactly one block,
//     in source order, so a transfer function can walk Block.Nodes with
//     ast.Inspect and see operations in execution order (within the
//     usual single-expression evaluation-order caveats).
//   - if/for/range/switch/type-switch/select, labeled break/continue,
//     goto, fallthrough and defer are modeled structurally. Defer
//     statements appear as ordinary *ast.DeferStmt nodes; analyzers that
//     are defer-aware (lockbalance, spanpair) collect them themselves,
//     since the semantics they assign to a deferred call are their own.
//
// The companion flow.go provides the fixpoint engine: a keyed may/must bit
// lattice with a worklist solver, plus reachability helpers.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every basic block; Blocks[0] is Entry. Order is the
	// builder's creation order, which is close to (but not guaranteed to
	// be) source order.
	Blocks []*Block
	Entry  *Block
	// Exit is the virtual sink every terminating path reaches. It carries
	// no nodes and has no successors.
	Exit *Block
}

// A Block is a maximal straight-line sequence of AST nodes with a single
// entry point and a set of successor blocks.
type Block struct {
	Index int
	// Kind describes the block's structural role ("entry", "if.then",
	// "for.body", "select.case", ...). Diagnostic aid only.
	Kind string
	// Nodes are the statements and control expressions executed in this
	// block, in source order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Live is true when the block is reachable from Entry.
	Live bool
	// Returns is true when the block ends in an explicit return statement.
	Returns bool
	// Panics is true when the block terminates by panicking or calling a
	// function that never returns; its edge to Exit is a crash edge.
	Panics bool
}

// Pos returns a position to anchor diagnostics about b: the first node's
// position, or NoPos for node-less blocks.
func (b *Block) Pos() token.Pos {
	if len(b.Nodes) > 0 {
		return b.Nodes[0].Pos()
	}
	return token.NoPos
}

// Last returns the final node of b, or nil.
func (b *Block) Last() ast.Node {
	if n := len(b.Nodes); n > 0 {
		return b.Nodes[n-1]
	}
	return nil
}

func (b *Block) String() string {
	return fmt.Sprintf("block %d (%s)", b.Index, b.Kind)
}

// lblock tracks the three kinds of jump target a label can name.
type lblock struct {
	goto_     *Block
	break_    *Block
	continue_ *Block
}

// targets is the stack of break/continue/fallthrough destinations
// established by enclosing for/range/switch/select statements.
type targets struct {
	tail         *targets
	break_       *Block
	continue_    *Block
	fallthrough_ *Block
}

type builder struct {
	g       *CFG
	current *Block
	targets *targets
	labels  map[string]*lblock
	// label is the pending label of a LabeledStmt whose statement is a
	// loop/switch/select, consumed by that statement to bind its
	// break/continue targets.
	label *lblock
}

// New builds the CFG of one function body. body may be any *ast.BlockStmt
// (a FuncDecl body or a FuncLit body). New never modifies the AST and is
// total: any parseable body yields a graph.
func New(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &builder{g: g, labels: make(map[string]*lblock)}
	b.current = b.newBlock("entry")
	g.Entry = g.Blocks[0]
	g.Exit = b.newBlock("exit")
	b.stmt(body)
	// Falling off the end of the body is an implicit return.
	b.jump(g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	markLive(g)
	return g
}

func markLive(g *CFG) {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk.Live = true
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// link adds the edge from → to once.
func link(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an unconditional edge to target and
// continues building in a fresh (unreachable unless linked) block.
func (b *builder) jump(target *Block) {
	link(b.current, target)
	b.current = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.current.Nodes = append(b.current.Nodes, n)
}

// labeledBlock returns (creating on first use) the target record for name.
func (b *builder) labeledBlock(name string) *lblock {
	lb := b.labels[name]
	if lb == nil {
		lb = &lblock{}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than a labeled loop/switch/select consumes a
	// pending label (its break/continue cannot bind).
	label := b.label
	b.label = nil

	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		// nothing

	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}

	case *ast.LabeledStmt:
		lb := b.labeledBlock(s.Label.Name)
		if lb.goto_ == nil {
			lb.goto_ = b.newBlock("label." + s.Label.Name)
		}
		link(b.current, lb.goto_)
		b.current = lb.goto_
		b.label = lb
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		link(b.current, then)
		link(b.current, els)
		b.current = then
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.current = els
			b.stmt(s.Else)
			b.jump(done)
		}
		b.current = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		loop := b.newBlock("for.loop")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := loop
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		if label != nil {
			label.break_ = done
			label.continue_ = post
		}
		b.jump(loop)
		b.current = loop
		if s.Cond != nil {
			b.add(s.Cond)
			link(loop, body)
			link(loop, done)
		} else {
			// `for { ... }`: the only exits are break/return inside.
			link(loop, body)
		}
		b.targets = &targets{tail: b.targets, break_: done, continue_: post}
		b.current = body
		b.stmt(s.Body)
		b.jump(post)
		if s.Post != nil {
			b.current = post
			b.add(s.Post)
			b.jump(loop)
		}
		b.targets = b.targets.tail
		b.current = done

	case *ast.RangeStmt:
		b.add(s.X)
		loop := b.newBlock("range.loop")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		if label != nil {
			label.break_ = done
			label.continue_ = loop
		}
		b.jump(loop)
		b.current = loop
		// The iteration variables bind per step. Only Key/Value are added
		// (not the whole RangeStmt) so analyzers walking Block.Nodes never
		// see the loop body's nodes twice.
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		link(loop, body)
		link(loop, done)
		b.targets = &targets{tail: b.targets, break_: done, continue_: loop}
		b.current = body
		b.stmt(s.Body)
		b.jump(loop)
		b.targets = b.targets.tail
		b.current = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, false)

	case *ast.SelectStmt:
		entry := b.current
		done := b.newBlock("select.done")
		if label != nil {
			label.break_ = done
		}
		b.targets = &targets{tail: b.targets, break_: done}
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			body := b.newBlock("select.case")
			link(entry, body)
			b.current = body
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			for _, t := range cc.Body {
				b.stmt(t)
			}
			b.jump(done)
		}
		b.targets = b.targets.tail
		// `select {}` blocks forever: entry keeps no successors here.
		b.current = done

	case *ast.BranchStmt:
		b.add(s)
		var target *Block
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				target = b.labeledBlock(s.Label.Name).break_
			} else if b.targets != nil {
				target = b.targets.break_
			}
		case token.CONTINUE:
			if s.Label != nil {
				target = b.labeledBlock(s.Label.Name).continue_
			} else if b.targets != nil {
				for t := b.targets; t != nil; t = t.tail {
					if t.continue_ != nil {
						target = t.continue_
						break
					}
				}
			}
		case token.GOTO:
			if s.Label == nil {
				break // ill-formed bare goto: handled below
			}
			lb := b.labeledBlock(s.Label.Name)
			if lb.goto_ == nil {
				lb.goto_ = b.newBlock("label." + s.Label.Name)
			}
			target = lb.goto_
		case token.FALLTHROUGH:
			for t := b.targets; t != nil; t = t.tail {
				if t.fallthrough_ != nil {
					target = t.fallthrough_
					break
				}
			}
		}
		if target == nil {
			// Ill-formed (break outside loop, unknown label): treat as a
			// terminating statement rather than panicking — the type
			// checker rejects such code anyway, but the fuzzer feeds it.
			target = b.g.Exit
		}
		b.jump(target)

	case *ast.ReturnStmt:
		b.add(s)
		b.current.Returns = true
		b.jump(b.g.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if isNoReturnCall(s.X) {
			b.current.Panics = true
			b.jump(b.g.Exit)
		}

	default:
		// Decl, assignment, inc/dec, send, go, defer: straight-line.
		b.add(s)
	}
}

// switchBody builds the clause structure shared by switch and type switch.
func (b *builder) switchBody(label *lblock, body *ast.BlockStmt, allowFallthrough bool) {
	entry := b.current
	done := b.newBlock("switch.done")
	if label != nil {
		label.break_ = done
	}
	var clauses []*ast.CaseClause
	for _, cc := range body.List {
		clauses = append(clauses, cc.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock("switch.body")
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		// Conservatively, any clause may be selected from the head.
		link(entry, bodies[i])
		var ft *Block
		if allowFallthrough && i+1 < len(bodies) {
			ft = bodies[i+1]
		}
		b.targets = &targets{tail: b.targets, break_: done, fallthrough_: ft}
		b.current = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.jump(done)
		b.targets = b.targets.tail
	}
	if !hasDefault {
		link(entry, done)
	}
	b.current = done
}

// noReturnFuncs names package-qualified calls that never return. The match
// is syntactic (identifier.selector), which covers the conventional import
// names; a renamed import merely loses the edge-precision, never soundness
// of reachability (the block keeps a fall-through successor).
var noReturnFuncs = map[string]bool{
	"os.Exit":        true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
	"runtime.Goexit": true,
}

// isNoReturnCall reports whether e is a call that terminates the goroutine
// or process: the panic builtin or a known no-return function.
func isNoReturnCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return noReturnFuncs[x.Name+"."+fn.Sel.Name]
		}
	}
	return false
}

// Sanity checks the structural invariants FuzzCFGBuild asserts: the graph
// has entry and exit, the exit has no successors, predecessor lists agree
// with successor lists, and every edge endpoint is a block of this graph.
// It returns a description of the first violation, or "".
func (g *CFG) Sanity() string {
	if len(g.Blocks) == 0 || g.Entry == nil || g.Exit == nil {
		return "missing entry or exit"
	}
	if len(g.Exit.Succs) != 0 {
		return "exit block has successors"
	}
	index := make(map[*Block]bool, len(g.Blocks))
	for i, blk := range g.Blocks {
		if blk.Index != i {
			return fmt.Sprintf("block %d misindexed", i)
		}
		index[blk] = true
	}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if !index[s] {
				return fmt.Sprintf("%v has foreign successor", blk)
			}
			found := false
			for _, p := range s.Preds {
				if p == blk {
					found = true
					break
				}
			}
			if !found {
				return fmt.Sprintf("edge %v->%v missing from preds", blk, s)
			}
		}
	}
	return ""
}

// Dump renders the graph for debugging and golden tests.
func (g *CFG) Dump() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		if !blk.Live && len(blk.Nodes) == 0 && len(blk.Succs) == 0 {
			continue // builder residue
		}
		fmt.Fprintf(&sb, "%d[%s]", blk.Index, blk.Kind)
		if !blk.Live {
			sb.WriteString(" dead")
		}
		sb.WriteString(" ->")
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
