// Package transitions statically pins the model↔kernel transition
// parity that makes mmumodel's verdicts transferable: every action in
// internal/model's declarative Actions table must map to a named,
// existing kernel entry point, and — the direction drift actually
// comes from — every exported internal/kernel entry point that
// mutates context-switch/MM state (directly or through package-local
// calls) must appear in that table, be exempted here with a reason,
// or carry a //mmutricks:transitions-ok waiver. Without this pass, a
// new kernel mutator (say, a task migration call) could ship with the
// model silently checking a machine that no longer exists.
//
// The pairing is declarative, parity-style: ActionKernel maps each
// model action name to its kernel function, and ExemptEntryPoints
// lists exported mutators that are deliberately not modeled, each
// with its justification. Unit tests cross-check both tables against
// the real model.Actions literal and the real kernel method set, so
// adding an action or renaming an entry point without extending the
// table fails the build.
//
// Mutation tracking: writes (assignment, ++/--, map store, delete) to
// Kernel.cur/.activeMM/.kthreadMM/.mms, MM.Users/.Count, and Task.mm,
// propagated up the package-local call graph to exported functions.
// Propagation cuts at faultTick: it is the asynchronous machine-check
// delivery point reached from every charged memory access, and the
// kills it performs are audited dynamically (the chaos suite and the
// consistency sweep it triggers), not through the action table —
// without the cut, every access path would count as an mm mutator and
// the check would mean nothing. The synchronous drain entry point
// (DrainMachineChecks) reaches the same kills and is exempted below
// for the same reason.
package transitions

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
)

var Analyzer = &analysis.Analyzer{
	Name: "transitions",
	Doc:  "keep internal/model's action table and internal/kernel's exported MM-mutating entry points in lockstep, both directions",
	Run:  run,
}

const (
	kernelPath = "mmutricks/internal/kernel"
	modelPath  = "mmutricks/internal/model"
)

// ActionKernel maps every model action name to the kernel function
// that realizes it — the table the refinement harness replays by and
// the one this pass enforces in both directions.
var ActionKernel = map[string]string{
	"mm_init":        "SpawnTask",
	"context_switch": "Switch",
	"borrow_mm":      "SwitchToIdle",
	"use_mm":         "UseMM",
	"unuse_mm":       "UnuseMM",
	"exit_mm":        "Exit",
	"vsid_reassign":  "FlushTaskContext",
}

// ExemptEntryPoints are exported kernel functions that mutate tracked
// state but are deliberately not model actions; the value is the
// justification shown nowhere but read by every reviewer of this
// table.
var ExemptEntryPoints = map[string]string{
	"New":                "constructor: builds the boot state the model's Init mirrors exactly",
	"Spawn":              "boot-time composite of SpawnTask (mm_init) and an uncharged first switch",
	"Fork":               "second realization of mm_init: the child's fresh mm is identical to SpawnTask's; the eager page copy is cycle accounting, not MM state",
	"DrainMachineChecks": "synchronous machine-check delivery; its kills are exercised by the chaos suite and audited by CheckConsistency, not the action table",
}

// trackedFields are the state the model abstracts: writes to these
// make a function an MM mutator.
var trackedFields = map[string]bool{
	"Kernel.cur":       true,
	"Kernel.activeMM":  true,
	"Kernel.kthreadMM": true,
	"Kernel.mms":       true,
	"MM.Users":         true,
	"MM.Count":         true,
	"Task.mm":          true,
}

// boundary functions cut mutation propagation: their callees' writes
// are not attributed to their callers (see the package comment).
var boundary = map[string]bool{
	"faultTick": true,
}

func run(pass *analysis.Pass) error {
	switch pass.Pkg.Path() {
	case kernelPath:
		checkKernel(pass)
	case modelPath:
		checkModel(pass)
	}
	return nil
}

// checkModel parses the Actions table literal and requires its name
// set to equal ActionKernel's key set.
func checkModel(pass *analysis.Pass) {
	var lit *ast.CompositeLit
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name == "Actions" && i < len(vs.Values) {
					if cl, ok := vs.Values[i].(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
			return true
		})
	}
	if lit == nil {
		pass.Reportf(pass.Files[0].Name.Pos(), "model package has no Actions composite literal; the transitions analyzer cannot pin the action table")
		return
	}

	seen := map[string]token.Pos{}
	for _, elt := range lit.Elts {
		row, ok := elt.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, f := range row.Elts {
			kv, ok := f.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Name" {
				continue
			}
			bl, ok := kv.Value.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				pass.Reportf(kv.Value.Pos(), "action Name must be a string literal for the transitions analyzer to parse")
				continue
			}
			name, err := strconv.Unquote(bl.Value)
			if err != nil {
				continue
			}
			seen[name] = bl.Pos()
			if _, known := ActionKernel[name]; !known {
				pass.Reportf(bl.Pos(), "model action %q has no kernel mapping; add it to tools/analyzers/transitions.ActionKernel naming its kernel entry point", name)
			}
		}
	}
	for _, name := range sortedKeys(ActionKernel) {
		if _, ok := seen[name]; !ok {
			pass.Reportf(lit.Pos(), "ActionKernel maps %q -> %s but the model's Actions table has no such action; remove the mapping or model the transition", name, ActionKernel[name])
		}
	}
}

// checkKernel verifies both directions against the kernel package:
// the table's named functions exist, and every exported mutator is
// accounted for.
func checkKernel(pass *analysis.Pass) {
	type fnInfo struct {
		decl    *ast.FuncDecl
		mutates bool
		callees []*types.Func
	}
	fns := map[*types.Func]*fnInfo{}
	waivedLines := map[int]bool{}

	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		waived, malformed := annotation.Waivers(pass.Fset, file, "transitions-ok")
		for line := range malformed {
			pass.Reportf(analysis.LineStart(pass.Fset, file, line), "mmutricks:transitions-ok waiver requires a reason")
		}
		for line := range waived {
			waivedLines[line] = true
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if trackedWrite(pass.Info, lhs) {
							info.mutates = true
						}
					}
				case *ast.IncDecStmt:
					if trackedWrite(pass.Info, n.X) {
						info.mutates = true
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
						if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && trackedWrite(pass.Info, n.Args[0]) {
							info.mutates = true
						}
					}
					if callee := analysis.CalleeFunc(pass.Info, n.Fun); callee != nil && callee.Pkg() == pass.Pkg {
						info.callees = append(info.callees, callee)
					}
				}
				return true
			})
			fns[fn] = info
		}
	}

	// Transitive closure over package-local calls, cut at the boundary.
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if info.mutates {
				continue
			}
			for _, c := range info.callees {
				if boundary[c.Name()] {
					continue
				}
				if ci, ok := fns[c]; ok && ci.mutates {
					info.mutates = true
					changed = true
					break
				}
			}
		}
	}

	// Direction A: every table-named kernel function exists.
	defined := map[string]bool{}
	for fn := range fns {
		defined[fn.Name()] = true
	}
	for _, action := range sortedKeys(ActionKernel) {
		if fname := ActionKernel[action]; !defined[fname] {
			pass.Reportf(pass.Files[0].Name.Pos(), "ActionKernel maps %q to kernel function %s, which does not exist; fix the table or restore the entry point", action, fname)
		}
	}

	// Direction B: every exported mutator is a table value, exempt, or
	// waived on its declaration line.
	inTable := map[string]string{}
	for action, fname := range ActionKernel {
		inTable[fname] = action
	}
	var exported []*types.Func
	for fn := range fns {
		exported = append(exported, fn)
	}
	sort.Slice(exported, func(i, j int) bool { return exported[i].Name() < exported[j].Name() })
	for _, fn := range exported {
		info := fns[fn]
		name := fn.Name()
		if !info.mutates || !fn.Exported() {
			continue
		}
		if _, ok := inTable[name]; ok {
			continue
		}
		if _, ok := ExemptEntryPoints[name]; ok {
			continue
		}
		if waivedLines[pass.Fset.Position(info.decl.Pos()).Line] {
			continue
		}
		pass.Reportf(info.decl.Name.Pos(), "exported entry point %s mutates context-switch/MM state but is not in the model's action table; model it (ActionKernel + model.Actions), exempt it in tools/analyzers/transitions, or waive //mmutricks:transitions-ok with a reason", name)
	}
}

// trackedWrite reports whether e (an assignment target, ++/-- operand,
// or delete argument) resolves to a tracked field, possibly through an
// index expression (k.mms[id] = ...).
func trackedWrite(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return trackedFields[fmt.Sprintf("%s.%s", named.Obj().Name(), sel.Sel.Name)]
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
