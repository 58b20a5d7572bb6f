// Package hotalloc enforces the allocation contracts of SledZig's hot
// paths statically. The repo already gates allocs/op through benchdiff,
// but a benchmark only sees the inputs it runs: an allocation hiding on a
// rarely-taken-but-successful branch (a lazy buffer grow without its
// capacity guard, a closure materialized per frame, an argument boxed
// into an interface) slips the gate until a workload finds it. This
// analyzer proves the property on every successful path instead.
//
// A function opts in through a doc-comment directive:
//
//	//sledzig:noalloc            — strict: no allocation on any path that
//	                               can reach a successful return
//	//sledzig:noalloc budget=N   — amortized: a bounded number of one-time
//	                               allocations is part of the contract
//	                               (mirroring MaxEncodeAllocs); only
//	                               per-iteration allocations inside loops
//	                               are defects
//
// "Successful return" means a return whose error results are all literal
// nil, or falling off the end; error returns and panic paths are cold and
// free to allocate (fmt.Errorf is fine there). The CFG decides hotness:
// a block is hot when it can reach a success exit.
//
// Flagged operations in hot blocks (strict) or loops (budget):
//
//   - make / new / append
//   - slice and map composite literals, and &T{...}
//   - string ↔ []byte/[]rune conversions
//   - function literals that capture variables (strict only)
//   - boxing a non-pointer concrete value into an interface parameter
//     (strict only)
//   - calling an un-annotated function of the same package that makes,
//     news, appends or builds a literal on a path to its own successful
//     return, itself or through the un-annotated same-package functions
//     it calls there, at any depth (strict only)
//
// Two idioms are exempt because they are how 0 allocs/op is achieved:
// anything inside an if whose condition consults cap()/len() or compares
// against nil (the amortized-grow guard), and sync.Pool Get/Put calls.
// Genuine contract exceptions take //sledvet:ignore hotalloc with the
// reasoning written down.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"sledzig/internal/analysis"
	"sledzig/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//sledzig:noalloc functions must not allocate on paths reaching a successful return",
	Run:  run,
}

const directivePrefix = "//sledzig:noalloc"

type directive struct {
	budget int // -1 = strict
	pos    token.Pos
}

// parseDirective scans a FuncDecl doc comment for the noalloc directive.
// The second return is a malformed-directive message ("" when fine).
func parseDirective(doc *ast.CommentGroup) (*directive, string, token.Pos) {
	if doc == nil {
		return nil, "", token.NoPos
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, directivePrefix) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
		if rest == "" {
			return &directive{budget: -1, pos: c.Pos()}, "", c.Pos()
		}
		if v, ok := strings.CutPrefix(rest, "budget="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err == nil && n >= 0 {
				return &directive{budget: n, pos: c.Pos()}, "", c.Pos()
			}
		}
		return nil, "malformed //sledzig:noalloc directive: want nothing or budget=<n>, got " + strconv.Quote(rest), c.Pos()
	}
	return nil, "", token.NoPos
}

func run(pass *analysis.Pass) (any, error) {
	c := &callees{
		pass:   pass,
		decls:  map[*types.Func]*ast.FuncDecl{},
		probes: map[*ast.FuncDecl]*probe{},
		allocs: map[*ast.FuncDecl]*ast.FuncDecl{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					c.decls[obj] = fn
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Malformed directives anchor at the func keyword: directive
			// comment lines cannot carry fixture want-comments themselves.
			d, malformed, _ := parseDirective(fn.Doc)
			if malformed != "" {
				pass.Reportf(fn.Pos(), "%s", malformed)
				continue
			}
			if d == nil || fn.Body == nil {
				continue
			}
			check(pass, fn, d, pass.Reportf, c, nil)
		}
	}
	return nil, nil
}

// callees resolves a strict function's calls to the un-annotated
// functions of the same package and decides whether each allocates
// explicitly (make, new, append, a literal) on a path to its own
// successful return, or calls such a function there, at any depth.
type callees struct {
	pass   *analysis.Pass
	decls  map[*types.Func]*ast.FuncDecl
	probes map[*ast.FuncDecl]*probe
	allocs map[*ast.FuncDecl]*ast.FuncDecl // callee -> the function that allocates, nil if none
}

// probe is one un-annotated function's own contribution: whether it
// allocates explicitly on a hot path, and the un-annotated same-package
// functions it calls there.
type probe struct {
	direct bool
	calls  []*ast.FuncDecl
}

// callee returns the declaration call invokes when it is an un-annotated
// function of this package, else nil. Annotated functions are checked
// against their own contract where they are declared.
func (c *callees) callee(call *ast.CallExpr) *ast.FuncDecl {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if id == nil {
		return nil
	}
	obj, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	decl := c.decls[obj.Origin()]
	if decl == nil {
		return nil
	}
	if d, _, _ := parseDirective(decl.Doc); d != nil {
		return nil
	}
	return decl
}

// allocating names the callee of call when it allocates, itself or
// through its own callees, else "".
func (c *callees) allocating(call *ast.CallExpr) string {
	decl := c.callee(call)
	if decl == nil {
		return ""
	}
	where, seen := c.allocs[decl]
	if !seen {
		where = c.walk(decl, map[*ast.FuncDecl]bool{})
		c.allocs[decl] = where
	}
	switch where {
	case nil:
		return ""
	case decl:
		return decl.Name.Name
	}
	return decl.Name.Name + " (allocates in " + where.Name.Name + ")"
}

// walk searches the hot calls from decl depth first for a function that
// allocates explicitly and returns it, or nil. The visited set is the
// cycle guard: recursive and mutually recursive functions end the walk.
func (c *callees) walk(decl *ast.FuncDecl, visited map[*ast.FuncDecl]bool) *ast.FuncDecl {
	if visited[decl] {
		return nil
	}
	visited[decl] = true
	p := c.probes[decl]
	if p == nil {
		p = &probe{}
		check(c.pass, decl, &directive{budget: -1}, func(token.Pos, string, ...any) { p.direct = true }, c, p)
		c.probes[decl] = p
	}
	if p.direct {
		return decl
	}
	for _, next := range p.calls {
		if where := c.walk(next, visited); where != nil {
			return where
		}
	}
	return nil
}

// check reports fn's allocations against d through reportf. With p set
// it is the callee probe: it reports explicit allocation sites only, no
// closures or boxing, and records in p the calls the walk follows.
func check(pass *analysis.Pass, fn *ast.FuncDecl, d *directive, reportf func(token.Pos, string, ...any), c *callees, p *probe) {
	g := cfg.New(fn.Body)

	// Classify exit blocks: success = all error results literal nil, or
	// fall-off. If no return qualifies (e.g. every return propagates a
	// possibly-nil error variable), treat all non-crash exits as success
	// so the contract still binds.
	success := map[*cfg.Block]bool{}
	anySuccess := false
	for _, b := range g.ExitBlocks() {
		ok := true
		if b.Returns {
			if ret, isRet := b.Last().(*ast.ReturnStmt); isRet {
				ok = successfulReturn(pass, fn, ret)
			}
		}
		success[b] = ok
		if ok {
			anySuccess = true
		}
	}
	if !anySuccess {
		for _, b := range g.ExitBlocks() {
			success[b] = true
		}
	}
	hot := func(b *cfg.Block) bool {
		return g.CanReach(b, func(x *cfg.Block) bool { return success[x] })
	}

	// Syntactic context ranges: capacity-guard bodies, loop bodies, and
	// sync.Pool call spans.
	var guards, loops, pools []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if isCapacityGuard(s.Cond) {
				guards = append(guards, span{s.Body.Pos(), s.Body.End()})
			}
		case *ast.ForStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{s.Body.Pos(), s.Body.End()})
		case *ast.CallExpr:
			if isPoolMethod(pass, s, "Get") || isPoolMethod(pass, s, "Put") {
				pools = append(pools, span{s.Pos(), s.End()})
			}
		}
		return true
	})
	guarded := func(p token.Pos) bool { return within(guards, p) }
	inLoop := func(p token.Pos) bool { return within(loops, p) }
	inPool := func(p token.Pos) bool { return within(pools, p) }

	strict := d.budget < 0
	mode := "//sledzig:noalloc"
	if !strict {
		mode = "//sledzig:noalloc budget=" + strconv.Itoa(d.budget)
	}
	report := func(n ast.Node, what string) {
		if guarded(n.Pos()) {
			return // amortized-grow idiom
		}
		if strict {
			reportf(n.Pos(), "%s on a path to a successful return of %s function %s",
				what, mode, fn.Name.Name)
			return
		}
		if inLoop(n.Pos()) {
			reportf(n.Pos(), "%s inside a loop of %s function %s: allocates per iteration, not once",
				what, mode, fn.Name.Name)
		}
	}

	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		if strict && !hot(b) {
			continue // cold path: error handling may allocate
		}
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.FuncLit:
					if strict && p == nil {
						if capt := captured(pass, s); capt != "" {
							report(s, "function literal capturing "+capt)
						}
					}
					return false // interior is not this function's contract
				case *ast.CallExpr:
					checkCall(pass, s, strict && p == nil, inPool, report)
					if !strict {
						break
					}
					if p != nil {
						if callee := c.callee(s); callee != nil && !guarded(s.Pos()) {
							p.calls = append(p.calls, callee)
						}
					} else if name := c.allocating(s); name != "" {
						report(s, "call to allocating function "+name)
					}
				case *ast.CompositeLit:
					if t := pass.TypeOf(s); t != nil {
						switch t.Underlying().(type) {
						case *types.Slice:
							report(s, "slice literal")
						case *types.Map:
							report(s, "map literal")
						}
					}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
							report(s, "heap-allocated composite &"+typeName(pass, s.X)+"{}")
						}
					}
				}
				return true
			})
		}
	}
}

type span struct{ lo, hi token.Pos }

func within(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.lo <= p && p < s.hi {
			return true
		}
	}
	return false
}

// checkCall flags builtin allocators, allocating conversions, and (strict
// mode) interface boxing of arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, strict bool, inPool func(token.Pos) bool, report func(ast.Node, string)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call, "make")
			case "new":
				report(call, "new")
			case "append":
				report(call, "append (may grow the backing array)")
			}
			return
		}
	}
	// Conversions that copy: string <-> []byte/[]rune.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := pass.TypeOf(call.Args[0])
		if src != nil && allocatingConversion(dst, src.Underlying()) {
			report(call, "converting between string and byte/rune slice (copies)")
			return
		}
	}
	if !strict {
		return
	}
	// Interface boxing at call boundaries.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || inPool(call.Pos()) {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.Types[arg]
		if at.Type == nil || at.Value != nil || at.IsNil() {
			continue // constants and nil don't box per call here
		}
		t := at.Type
		if types.IsInterface(t) {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		report(arg, "boxing "+t.String()+" into interface argument")
	}
}

func allocatingConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// isCapacityGuard reports whether cond is the amortized-grow test: it
// consults cap() or len(), or compares something against nil.
func isCapacityGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		case *ast.BinaryExpr:
			if s.Op == token.EQL || s.Op == token.NEQ {
				if isNilIdent(s.X) || isNilIdent(s.Y) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// captured names a variable the literal closes over, or "" when the
// literal is capture-free (and therefore statically allocated).
func captured(pass *analysis.Pass, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			name = obj.Name()
		}
		return true
	})
	return name
}

// successfulReturn reports whether every error-typed result of ret is the
// literal nil. A bare return (named results) counts as successful.
func successfulReturn(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	obj := pass.TypesInfo.Defs[fn.Name]
	if obj == nil {
		return true
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return true
	}
	errType := types.Universe.Lookup("error").Type()
	for i, res := range ret.Results {
		if !types.Identical(sig.Results().At(i).Type(), errType) {
			continue
		}
		if !isNilIdent(res) {
			return false
		}
	}
	return true
}

// isPoolMethod reports whether call invokes Get/Put on a sync.Pool,
// resolved through the type checker.
func isPoolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

func typeName(pass *analysis.Pass, e ast.Expr) string {
	if cl, ok := ast.Unparen(e).(*ast.CompositeLit); ok && cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	return "T"
}
