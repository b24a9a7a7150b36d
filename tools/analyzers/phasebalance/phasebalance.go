// Package phasebalance proves the phase-stack discipline: every phase
// entered through the machine's tracer is left on every path, so the
// ledger's stack cannot leak a phase and misattribute the cycles that
// follow.
//
// A phase is entered by a call that returns an mmtrace.Span token —
// Enter, a typed entering call such as Syscall, or a helper that
// returns one (the kernel's syscallEntry) — and left by a call that
// takes the token as its first argument: Exit, or an event call that
// ends the span (CtxSwitch, SwapOut, ...). The proof is local to each
// function body. Each token is used exactly once, in one of the shapes
//
//	defer t.Exit(t.Enter(ph))          // argument of a deferred exit
//	return t.Syscall()                 // returned by an entering helper
//	s := t.Syscall(); ...; return s    // through one local, used once
//
// and every exiting call is deferred, so it runs on every path out of
// the frame, panics included (Go evaluates the token argument at the
// defer statement, which is where the phase is entered). A helper that
// returns a token hands the obligation to its callers, which the pass
// checks in turn because their calls return a token too.
//
// The ledger's raw telemetry.Phases Enter and Exit are reported outside
// the telemetry and mmtrace packages, which implement the discipline.
//
// //mmutricks:phasebalance-ok <reason> on the offending line waives a
// finding (the reason is mandatory).
package phasebalance

import (
	"go/ast"
	"go/types"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "phasebalance",
	Doc:  "prove every phase entered through an mmtrace.Span token is left by exactly one deferred exit",
	Run:  run,
}

const (
	telemetryPkg = "mmutricks/internal/telemetry"
	mmtracePkg   = "mmutricks/internal/mmtrace"
)

func run(pass *analysis.Pass) error {
	if p := pass.Pkg.Path(); p == telemetryPkg || p == mmtracePkg {
		return nil
	}
	for _, file := range pass.Files {
		waived, malformed := annotation.Waivers(pass.Fset, file, "phasebalance-ok")
		for line := range malformed {
			pass.Reportf(analysis.LineStart(pass.Fset, file, line), "mmutricks:phasebalance-ok waiver requires a reason")
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Type, fn.Body, waived)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Type, fn.Body, waived)
			}
			return true
		})
	}
	return nil
}

// isToken reports whether t is mmtrace.Span.
func isToken(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == "Span" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == mmtracePkg
}

// exiting reports whether fn leaves a phase: its first parameter is a
// token.
func exiting(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isToken(sig.Params().At(0).Type())
}

// isRawPrimitive reports whether fn is telemetry.(*Phases).Enter or
// Exit.
func isRawPrimitive(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != telemetryPkg || (fn.Name() != "Enter" && fn.Name() != "Exit") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// inBody calls visit on every node of body outside nested function
// literals, which run calls checkBody on separately.
func inBody(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// checkBody pins every token in one function body to a balanced shape.
func checkBody(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt, waived map[int]string) {
	info := pass.Info
	returnsToken := ftype.Results != nil && len(ftype.Results.List) == 1 &&
		len(ftype.Results.List[0].Names) <= 1 && isToken(info.TypeOf(ftype.Results.List[0].Type))
	entering := func(e ast.Expr) *ast.CallExpr {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if ok && isToken(info.TypeOf(call)) {
			return call
		}
		return nil
	}
	local := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok || obj.Parent() == pass.Pkg.Scope() || !isToken(obj.Type()) {
			return nil
		}
		return obj
	}

	// sinks are the places a token may end: an exiting call's first
	// argument, or the result of a token-returning function. used
	// counts every read of a token local, sunk the reads at a sink.
	consumed := map[*ast.CallExpr]bool{}
	deferred := map[*ast.CallExpr]bool{}
	dropped := map[*ast.CallExpr]bool{}
	sunk := map[types.Object]int{}
	used := map[types.Object]int{}
	held := map[*ast.CallExpr]types.Object{}
	sink := func(e ast.Expr) {
		if call := entering(e); call != nil {
			consumed[call] = true
		} else if obj := local(e); obj != nil {
			sunk[obj]++
		}
	}
	inBody(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
			if call := entering(n.Call); call != nil {
				dropped[call] = true
			}
		case *ast.ExprStmt:
			if call := entering(n.X); call != nil {
				dropped[call] = true
			}
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, n.Fun); fn != nil && exiting(fn) && len(n.Args) > 0 {
				sink(n.Args[0])
			}
		case *ast.ReturnStmt:
			if returnsToken && len(n.Results) == 1 {
				sink(n.Results[0])
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, obj := entering(n.Rhs[0]), local(n.Lhs[0]); call != nil && obj != nil {
					held[call] = obj
				}
			}
		case *ast.Ident:
			if obj := local(n); obj != nil && info.Uses[n] == obj {
				used[obj]++
			}
		}
	})
	for call, obj := range held {
		if used[obj] == 1 && sunk[obj] == 1 {
			consumed[call] = true
		}
	}

	inBody(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if _, w := waived[pass.Fset.Position(call.Pos()).Line]; w {
			return
		}
		fn := analysis.CalleeFunc(info, call.Fun)
		name := "call"
		if fn != nil {
			name = fn.Name()
		}
		switch {
		case fn != nil && isRawPrimitive(fn):
			pass.Reportf(call.Pos(), "calls telemetry.Phases.%s directly; enter and leave phases through the tracer's span calls", fn.Name())
		case dropped[call]:
			pass.Reportf(call.Pos(), "the span token %s returns is dropped, so its phase is never left (want `defer t.Exit(t.%s(...))`)", name, name)
		case entering(call) != nil && !consumed[call]:
			pass.Reportf(call.Pos(), "the span token %s returns must be used exactly once: as the argument of a deferred exit, or returned from an entering helper", name)
		case fn != nil && exiting(fn) && !deferred[call]:
			pass.Reportf(call.Pos(), "%s leaves a phase but is not deferred, so a panic before it leaves the phase open", name)
		}
	})
}
