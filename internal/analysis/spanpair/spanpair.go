// Package spanpair proves that every trace span opened in a function is
// closed on every non-crash path. It is the dataflow complement to
// spanlit (which checks span *names*): an unclosed span here means a
// latency histogram that silently under-counts the exact code path that
// was slow — the failure mode the flight recorder exists to catch.
//
// Obligations are created when a call's result is bound to a local:
//
//	mk := e.Trace.Begin(m.encLayout)    // Mark    → needs mk.End(n, err)
//	tr := trace.Start("decode")         // *Frame  → needs tr.Finish(err)
//
// and discharged by the matching close on every path, or by a deferred
// close (directly or inside a deferred function literal). Both types are
// matched structurally — a named type Mark, or pointer to Frame, declared
// in a package named "trace" — so the fixture corpus and the real
// internal/obs/trace both bind.
//
// A span value that escapes the frame — stored in a struct or composite
// literal (the engine's `&job{tr: trace.Start("decode")}`), passed to a
// call, returned, sent on a channel, captured by a non-deferred literal,
// or aliased — transfers the obligation to the receiver and is dropped
// here: the analysis stays intraprocedural and errs toward silence.
// Three things are reported:
//
//   - a span open (may-held) at a return or the function end with no
//     deferred close covering it;
//   - a span result discarded outright (`f.Begin(st)` as a statement, or
//     bound to _), which can never be closed;
//   - a live span overwritten by reassignment, which orphans the first
//     span's End.
//
// Like all sledvet dataflow checks, crash edges (panic/os.Exit) do not
// bind, and intentional protocols need //sledvet:ignore with a reason.
package spanpair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"sledzig/internal/analysis"
	"sledzig/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "trace spans (Begin/Start) must be closed (End/Finish) on every non-crash path",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFrame(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
					checkFrame(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// spanKind describes which close discharges an obligation.
type spanKind int

const (
	kindNone  spanKind = iota
	kindMark           // trace.Mark   → End()
	kindFrame          // *trace.Frame → Finish(err)
)

func (k spanKind) closer() string {
	if k == kindMark {
		return "End"
	}
	return "Finish"
}

// classify reports whether t is one of the two span value types.
func classify(t types.Type) spanKind {
	if t == nil {
		return kindNone
	}
	if p, ok := t.(*types.Pointer); ok {
		if isTraceNamed(p.Elem(), "Frame") {
			return kindFrame
		}
		return kindNone
	}
	if isTraceNamed(t, "Mark") {
		return kindMark
	}
	return kindNone
}

func isTraceNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "trace"
}

// site is one span-creating assignment.
type site struct {
	obj  types.Object
	kind spanKind
	pos  token.Pos
	name string // variable name, for messages
}

func (s *site) key() string { return fmt.Sprintf("span %s@%d", s.name, s.obj.Pos()) }

func checkFrame(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass A1: find span-creating assignments and discarded span results.
	sites := map[types.Object]*site{}
	eachNodeSkippingFuncLits(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if k := classify(pass.TypeOf(call)); k != kindNone {
					pass.Reportf(call.Pos(),
						"span result discarded: %s can never be called; bind the result", k.closer())
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				k := classify(pass.TypeOf(call))
				if k == kindNone {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue // stored into a field/element: escape, owner closes
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(),
						"span result discarded: %s can never be called; bind the result", k.closer())
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, tracked := sites[obj]; !tracked {
					sites[obj] = &site{obj: obj, kind: k, pos: call.Pos(), name: id.Name}
				}
			}
		}
	})
	if len(sites) == 0 {
		return
	}

	// Pass A2: drop any span that escapes the frame — its obligation
	// transfers to whoever received it.
	for obj := range sites {
		if escapes(pass, body, obj, sites[obj].kind) {
			delete(sites, obj)
		}
	}
	if len(sites) == 0 {
		return
	}

	// Pass B: dataflow. Open sets the site key; close clears it; a
	// deferred close sets a coverage key honored at exits.
	g := cfg.New(body)
	reporting := false
	transfer := func(b *cfg.Block, in cfg.State) cfg.State {
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.DeferStmt:
					if st := closeTarget(pass, sites, s.Call); st != nil {
						in.Set("defer "+st.key(), cfg.May|cfg.Must)
						return false
					}
					if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
						ast.Inspect(lit.Body, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok {
								if st := closeTarget(pass, sites, c); st != nil {
									in.Set("defer "+st.key(), cfg.May|cfg.Must)
								}
							}
							return true
						})
					}
					return false
				case *ast.AssignStmt:
					for i, rhs := range s.Rhs {
						if i >= len(s.Lhs) {
							break
						}
						call, ok := ast.Unparen(rhs).(*ast.CallExpr)
						if !ok || classify(pass.TypeOf(call)) == kindNone {
							continue
						}
						id, ok := s.Lhs[i].(*ast.Ident)
						if !ok {
							continue
						}
						obj := pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = pass.TypesInfo.Uses[id]
						}
						st := sites[obj]
						if st == nil {
							continue
						}
						if reporting && in.Get(st.key())&cfg.May != 0 {
							pass.Reportf(s.Pos(),
								"span %q (opened at line %d) may still be open when reassigned; call %s first",
								st.name, line(pass, st.pos), st.kind.closer())
						}
						// The new span replaces the old obligation; its
						// own opening position is folded into the same
						// key, which stays precise enough for exits.
						in.Set(st.key(), cfg.May|cfg.Must)
					}
				case *ast.CallExpr:
					if st := closeTarget(pass, sites, s); st != nil {
						in.Set(st.key(), 0)
					}
				}
				return true
			})
		}
		return in
	}
	in, out := cfg.Forward(g, cfg.State{}, transfer)

	reporting = true
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		st := in[b]
		if st == nil {
			st = cfg.State{}
		}
		transfer(b, st.Clone())
	}

	reported := map[string]bool{}
	for _, b := range g.ExitBlocks() {
		st := out[b]
		for _, s := range sites {
			if st.Get(s.key())&cfg.May == 0 || st.Get("defer "+s.key())&cfg.May != 0 {
				continue
			}
			at := body.Rbrace
			what := "function end"
			if b.Returns {
				if last := b.Last(); last != nil {
					at = last.Pos()
				}
				what = "return"
			}
			k := fmt.Sprintf("%s@%d", s.key(), at)
			if reported[k] {
				continue
			}
			reported[k] = true
			pass.Reportf(at,
				"span %q (opened at line %d) may reach this %s without %s; close it on every path or defer the close",
				s.name, line(pass, s.pos), what, s.kind.closer())
		}
	}
}

// closeTarget reports whether call is `v.End()` or `v.Finish(...)` for a
// tracked span v, returning its site.
func closeTarget(pass *analysis.Pass, sites map[types.Object]*site, call *ast.CallExpr) *site {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	st := sites[obj]
	if st == nil || sel.Sel.Name != st.kind.closer() {
		return nil
	}
	return st
}

// escapes reports whether obj leaves the frame in any way that hands off
// the close obligation: passed to a call (other than its own close),
// returned, stored into a non-ident lvalue or composite literal, sent on
// a channel, address-taken, aliased to another variable, or captured by a
// non-deferred function literal.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, kind spanKind) bool {
	esc := false
	uses := func(n ast.Node) bool { return n != nil && usesObject(pass, n, obj) }

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if esc {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			if uses(s.Body) {
				esc = true
			}
			return false
		case *ast.DeferStmt:
			// A deferred direct close, or a deferred literal that only
			// closes, is the blessed pattern, not an escape.
			if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
					pass.TypesInfo.Uses[id] == obj && sel.Sel.Name == closerName(kind) {
					for _, a := range s.Call.Args {
						if uses(a) {
							esc = true
						}
					}
					return false
				}
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
						if !isCloseReceiver(pass, lit.Body, id, obj, kind) {
							esc = true
						}
					}
					return true
				})
				return false
			}
			if uses(s.Call) {
				esc = true
			}
			return false
		case *ast.GoStmt:
			if uses(s.Call) {
				esc = true
			}
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					// A method call on the span itself: fine. Its args may
					// still leak the object.
					for _, a := range s.Args {
						if uses(a) {
							esc = true
						}
					}
					return !esc
				}
			}
			for _, a := range s.Args {
				if uses(a) {
					esc = true
				}
			}
			return !esc
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if uses(r) {
					esc = true
				}
			}
			return !esc
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if classify(pass.TypeOf(call)) != kindNone {
						continue // the creating call itself
					}
				}
				if uses(rhs) {
					esc = true // alias or computed store: owner changed
				}
			}
			for _, lhs := range s.Lhs {
				if _, ok := lhs.(*ast.Ident); !ok && uses(lhs) {
					esc = true
				}
			}
			return !esc
		case *ast.SendStmt:
			if uses(s.Value) {
				esc = true
			}
			return !esc
		case *ast.CompositeLit:
			if uses(s) {
				esc = true
			}
			return false
		case *ast.UnaryExpr:
			if s.Op == token.AND && uses(s.X) {
				esc = true
			}
			return !esc
		}
		return true
	}
	ast.Inspect(body, walk)
	return esc
}

func closerName(k spanKind) string { return k.closer() }

// isCloseReceiver reports whether id (resolving to obj) appears as the
// receiver of the close call inside root.
func isCloseReceiver(pass *analysis.Pass, root ast.Node, id *ast.Ident, obj types.Object, kind spanKind) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != closerName(kind) {
			return true
		}
		if rid, ok := ast.Unparen(sel.X).(*ast.Ident); ok && rid == id {
			found = true
			return false
		}
		return true
	})
	return found
}

// eachNodeSkippingFuncLits visits body without descending into nested
// function literals (separate frames).
func eachNodeSkippingFuncLits(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

func usesObject(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func line(pass *analysis.Pass, pos token.Pos) int {
	return pass.Fset.Position(pos).Line
}
