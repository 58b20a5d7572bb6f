// Package spanlit enforces the frame-kind naming convention of the
// per-frame tracing layer, the sibling of metriclit: the kind passed to a
// frame root must be a compile-time constant in lowercase dotted form.
//
// Every call to Tracer.Start and the package-level trace.Start — matched
// by the callee's defining package being named "trace" — is checked:
//
//   - the kind argument must have a constant string value (literal,
//     const, or concatenation of those) — dynamic kinds defeat the Chrome
//     trace timeline grouping and the flight-recorder diffing workflow;
//   - the value must match ^[a-z0-9_]+(\.[a-z0-9_]+)*$ — the convention
//     every existing kind follows ("encode", "decode", "waveform").
//
// Stage spans need no check here: Frame.Begin takes an *obs.Stage and
// names the span after it, and metriclit already checks stage names where
// Scope.Stage resolves them.
//
// The trace package itself is exempt, like obs is for metriclit.
package spanlit

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"sledzig/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanlit",
	Doc:  "trace frame kinds must be lowercase-dotted compile-time constants",
	Run:  run,
}

var nameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "trace" {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Start" || !traceCallee(pass, sel) {
				return true
			}

			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"trace Start kind must be a compile-time constant string (dynamic kinds defeat timeline grouping)")
				return true
			}
			name := constant.StringVal(tv.Value)
			if !nameRE.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"trace Start kind %q must be lowercase dotted ([a-z0-9_] segments separated by '.')",
					name)
			}
			return true
		})
	}
	return nil, nil
}

// traceCallee resolves whether sel names a function or method defined in a
// package named "trace": Tracer.Start (a method selection) or the
// package-level trace.Start.
func traceCallee(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if selection, ok := pass.TypesInfo.Selections[sel]; ok {
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
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Name() == "trace"
	}
	// Not a method selection: a qualified identifier like trace.Start.
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == "trace"
}
