// Package invariantcheck enforces the lazy-flush safety net: any test
// or experiment that mutates kernel translation state through the
// flush/swap/COW entry points must validate Kernel.CheckConsistency
// before asserting results. Lazy flushing deliberately leaves
// stale-looking state around (zombie PTEs, unmatchable TLB entries);
// a test that drives those paths without the checker can pass while
// the coherence invariants rot.
//
// Roots are Test* functions (in _test.go files) and experiment Run
// functions (functions assigned to the Run field of a report
// Experiment literal). A root is flagged when it transitively — via
// same-package static calls — invokes a translation-state mutator
// (Kernel.FlushTaskContext, Swap, Exec, Exit, Fork, Switch,
// RunIdleFor, SysMunmap, SysMprotect, SysBrk, SysKill) but never
// transitively calls a method named CheckConsistency.
//
// Benchmark* and Fuzz* functions are exempt: a consistency sweep
// inside a timed or fuzzing loop distorts what those harnesses
// measure; the mirrored Test functions carry the obligation. A Test
// root can be waived with `//mmutricks:nocheck <reason>`.
package invariantcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "invariantcheck",
	Doc:  "require tests and experiments that mutate kernel translation state to call CheckConsistency",
	Run:  run,
}

// mutators are the kernel.Kernel methods that mutate translation state
// (flush machinery, swap, COW via fork/exec/exit, unmap/protect).
var mutators = map[string]bool{
	"FlushTaskContext": true, "Swap": true, "Exec": true, "Exit": true,
	"Fork": true, "Switch": true, "RunIdleFor": true,
	"SysMunmap": true, "SysMprotect": true, "SysBrk": true, "SysKill": true,
	"SwitchToIdle": true, "UseMM": true, "UnuseMM": true,
}

type summary struct {
	mutates bool
	checks  bool
}

func run(pass *analysis.Pass) error {
	a := &analyzer{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}, sums: map[*types.Func]*summary{}}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					a.decls[fn] = fd
				}
			}
		}
	}
	roots := a.findRoots()
	for _, root := range roots {
		fd := a.decls[root]
		s := a.summarize(root, map[*types.Func]bool{})
		if !s.mutates || s.checks {
			continue
		}
		set := annotation.OfFunc(fd)
		for _, m := range set.Malformed {
			pass.Reportf(annotation.DocDirectivePos(fd.Doc), "malformed mmutricks directive: %s", m)
		}
		if set.Nocheck {
			continue
		}
		pass.Reportf(fd.Pos(), "%s mutates kernel translation state but never calls CheckConsistency; add a check or annotate //mmutricks:nocheck <reason>", root.Name())
	}
	return nil
}

type analyzer struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*summary
}

// findRoots returns the functions that carry the check obligation:
// TestXxx functions and report experiment Run functions.
func (a *analyzer) findRoots() []*types.Func {
	var roots []*types.Func
	for fn, fd := range a.decls {
		if isTestFile(a.pass, fd) && strings.HasPrefix(fn.Name(), "Test") && fd.Recv == nil {
			roots = append(roots, fn)
		}
	}
	// Experiment Run fields: register(Experiment{..., Run: runFoo}).
	for _, file := range a.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if named, ok := a.pass.Info.Types[lit].Type.(*types.Named); !ok || named.Obj().Name() != "Experiment" {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Run" {
					continue
				}
				if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok {
					if fn, ok := a.pass.Info.Uses[id].(*types.Func); ok && a.decls[fn] != nil {
						roots = append(roots, fn)
					}
				}
			}
			return true
		})
	}
	return roots
}

func isTestFile(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	return strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go")
}

// summarize computes {mutates, checks} for fn over same-package static
// calls.
func (a *analyzer) summarize(fn *types.Func, inProgress map[*types.Func]bool) *summary {
	if s, ok := a.sums[fn]; ok {
		return s
	}
	if inProgress[fn] {
		return &summary{}
	}
	inProgress[fn] = true
	defer delete(inProgress, fn)

	s := &summary{}
	fd := a.decls[fn]
	if fd == nil {
		return s
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(a.pass.Info, call.Fun)
		if callee == nil {
			return true
		}
		name := callee.Name()
		switch {
		case name == "CheckConsistency":
			s.checks = true
		case mutators[name] && onKernel(callee):
			s.mutates = true
		case a.decls[callee] != nil:
			cs := a.summarize(callee, inProgress)
			s.mutates = s.mutates || cs.mutates
			s.checks = s.checks || cs.checks
		}
		return true
	})
	a.sums[fn] = s
	return s
}

// onKernel reports whether fn is a method on a type named Kernel in a
// package named kernel.
func onKernel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Kernel" && named.Obj().Pkg().Name() == "kernel"
}
