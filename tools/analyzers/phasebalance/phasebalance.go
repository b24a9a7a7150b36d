// Package phasebalance proves the phase-stack discipline: every phase
// entered through telemetry.(*Phases).Span is exited on all paths, so
// the conservation identity CheckConsistency enforces at runtime can
// never be broken by a leaked span.
//
// The proof is shape-based. Span returns an exit closure that must be
// called exactly once; the pass pins every call to an *opener* — Span
// itself, or any function that returns an opener's result (the
// kernel's syscallEntry helper) — to one of the shapes whose
// balance is self-evident:
//
//	defer f(...)()      // exit runs on every path out of the frame
//	f(...)()            // degenerate span, entered and exited in place
//	return f(...)       // obligation moves to the caller, which this
//	                    // pass checks because the function is now an
//	                    // opener itself
//	x := f(...)         // allowed only when every use of x is
//	                    // `defer x()`, `x()`, or `return x`
//
// Any other use — storing the closure in a field, passing it as an
// argument, branching on it, dropping it — is reported: no syntactic
// argument can show such a closure runs exactly once per entry. Openers
// are discovered transitively across package boundaries through the
// module index, so a new helper wrapping Span inherits the obligation
// without registration.
//
// The raw primitives Enter and Exit are reported anywhere outside the
// telemetry package itself: their balance depends on control flow the
// pass cannot see, and Span costs the same.
//
// //mmutricks:phasebalance-ok <reason> on the offending line waives a
// finding (the reason is mandatory).
package phasebalance

import (
	"go/ast"
	"go/types"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
	"mmutricks/tools/analyzers/noalloc"
)

var Analyzer = &analysis.Analyzer{
	Name: "phasebalance",
	Doc:  "prove every telemetry phase Span is exited on all paths (opener shapes only)",
	Run:  run,
}

// telemetryPkg is the package whose internals are exempt: it implements
// the discipline the rest of the module is held to.
const telemetryPkg = "mmutricks/internal/telemetry"

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == telemetryPkg {
		return nil
	}
	a := &checker{pass: pass, openers: map[*types.Func]int{}}
	for _, file := range pass.Files {
		waived, malformed := annotation.Waivers(pass.Fset, file, "phasebalance-ok")
		for line := range malformed {
			pass.Reportf(noalloc.LineStart(pass.Fset, file, line), "mmutricks:phasebalance-ok waiver requires a reason")
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(fd, waived)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// openers memoizes isOpener: 0 unvisited, 1 in progress or false,
	// 2 true.
	openers map[*types.Func]int
}

// isSeed reports whether fn is telemetry.(*Phases).Span — the root
// opener.
func isSeed(fn *types.Func) bool {
	return fn.Name() == "Span" && fn.Pkg() != nil && fn.Pkg().Path() == telemetryPkg
}

// isRawPrimitive reports whether fn is telemetry.(*Phases).Enter or
// Exit — forbidden outside their own package.
func isRawPrimitive(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPkg {
		return false
	}
	if fn.Name() != "Enter" && fn.Name() != "Exit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isOpener reports whether fn's result is a span-exit closure: Span
// itself, or a module function with a single func() result at least
// one of whose returns traces to an opener call. Cycles resolve to
// false (a recursive "opener" proves nothing).
func (c *checker) isOpener(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if isSeed(fn) {
		return true
	}
	switch c.openers[fn] {
	case 1:
		return false
	case 2:
		return true
	}
	c.openers[fn] = 1
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || !isExitFuncType(sig.Results().At(0).Type()) {
		return false
	}
	decl, _, info := c.pass.Module.FuncSource(fn)
	if decl == nil || decl.Body == nil || info == nil {
		return false
	}
	// Locals assigned from opener calls count as opener results when
	// returned (the syscallEntry shape: done := k.M.Ph.Span(...); return done).
	vars := map[types.Object]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && c.isOpener(noalloc.CalleeFunc(info, call.Fun)) {
			if obj := info.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
		return true
	})
	opener := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		switch e := ast.Unparen(ret.Results[0]).(type) {
		case *ast.CallExpr:
			if c.isOpener(noalloc.CalleeFunc(info, e.Fun)) {
				opener = true
			}
		case *ast.Ident:
			if vars[info.ObjectOf(e)] {
				opener = true
			}
		}
		return true
	})
	if opener {
		c.openers[fn] = 2
	}
	return opener
}

// isExitFuncType reports whether t is func() — the exit-closure type.
func isExitFuncType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 && sig.Recv() == nil
}

// checkFunc pins every opener call in one body to a balanced shape.
func (c *checker) checkFunc(fd *ast.FuncDecl, waived map[int]string) {
	info := c.pass.Info
	// ok collects the opener calls consumed by a balanced shape; the
	// sweep below reports the rest.
	ok := map[*ast.CallExpr]bool{}
	openerCall := func(e ast.Expr) *ast.CallExpr {
		call, isCall := ast.Unparen(e).(*ast.CallExpr)
		if isCall && c.isOpener(noalloc.CalleeFunc(info, call.Fun)) {
			return call
		}
		return nil
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer f(...)(): the deferred function is the opener result.
			if call := openerCall(n.Call.Fun); call != nil {
				ok[call] = true
			}
		case *ast.ExprStmt:
			// f(...)(): entered and exited in place.
			if outer, isCall := n.X.(*ast.CallExpr); isCall {
				if call := openerCall(outer.Fun); call != nil {
					ok[call] = true
				}
			}
		case *ast.ReturnStmt:
			// return f(...): the enclosing function becomes an opener and
			// its callers carry the obligation.
			if len(n.Results) == 1 {
				if call := openerCall(n.Results[0]); call != nil {
					ok[call] = true
				}
			}
		case *ast.AssignStmt:
			// x := f(...): every use of x must itself be balanced.
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call := openerCall(n.Rhs[0]); call != nil {
					if id, isIdent := n.Lhs[0].(*ast.Ident); isIdent && c.varUsesBalanced(fd, info.ObjectOf(id)) {
						ok[call] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		fn := noalloc.CalleeFunc(info, call.Fun)
		line := c.pass.Fset.Position(call.Pos()).Line
		if _, w := waived[line]; w {
			return true
		}
		if isRawPrimitive(fn) {
			c.pass.Reportf(call.Pos(), "calls telemetry.Phases.%s directly; use Span so the exit is provably paired", fn.Name())
			return true
		}
		if c.isOpener(fn) && !ok[call] {
			c.pass.Reportf(call.Pos(),
				"span opener %s used outside a balanced shape (want `defer f(...)()`, `f(...)()`, `return f(...)`, or `x := f(...)` with every use of x a defer/call/return)",
				fn.Name())
		}
		return true
	})
}

// varUsesBalanced reports whether every use of obj inside fd (other
// than its defining assignment) is one of `defer x()`, `x()`, or
// `return x`, with at least one use — the shapes under which the
// closure provably runs.
func (c *checker) varUsesBalanced(fd *ast.FuncDecl, obj types.Object) bool {
	if obj == nil {
		return false
	}
	info := c.pass.Info
	// consumed marks ident uses sitting in a balanced shape.
	consumed := map[*ast.Ident]bool{}
	isObj := func(e ast.Expr) *ast.Ident {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.ObjectOf(id) == obj {
			return id
		}
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if id := isObj(n.Call.Fun); id != nil && len(n.Call.Args) == 0 {
				consumed[id] = true
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && len(call.Args) == 0 {
				if id := isObj(call.Fun); id != nil {
					consumed[id] = true
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 1 {
				if id := isObj(n.Results[0]); id != nil {
					consumed[id] = true
				}
			}
		}
		return true
	})
	uses := 0
	balanced := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != obj {
			return true
		}
		// The defining occurrence is the one in info.Defs.
		if info.Defs[id] == obj {
			return true
		}
		uses++
		if !consumed[id] {
			balanced = false
		}
		return true
	})
	return balanced && uses > 0
}
