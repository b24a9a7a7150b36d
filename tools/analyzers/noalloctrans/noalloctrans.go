// Package noalloctrans is the call-graph-aware successor of the
// noalloc pass: it proves //mmutricks:noalloc transitively over the
// whole program instead of one function at a time.
//
// For every annotated function the pass checks the body for allocating
// constructs (the shared noalloc.BodyChecker walk) and applies a callee
// policy to every statically-resolved module callee:
//
//   - annotated //mmutricks:noalloc — trusted here, proven when its own
//     package is analyzed (run the pass over ./... for the full proof);
//   - annotated //mmutricks:free <reason> — explicitly waived out of
//     the proof obligation;
//   - anything else — reported at the call site, and the pass then
//     descends into the callee's body (across package boundaries, via
//     the module index) so allocating constructs buried two or three
//     unannotated frames deep surface in a single run instead of one
//     fix-and-rerun cycle per frame.
//
// The pass also pins the proof roots: entry points like ppc.MMU.
// Translate are called only from unannotated kernel code, so no call
// site would notice a deleted annotation on them. Each method listed in
// Roots must itself be annotated, making the whole annotation chain
// deletion-tight from the root down.
//
// Interface-method contracts, the stdlib allowlist, directive
// hygiene, and //mmutricks:noalloc-ok line waivers carry over from the
// noalloc pass unchanged.
package noalloctrans

import (
	"go/ast"
	"go/types"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
	"mmutricks/tools/analyzers/noalloc"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloctrans",
	Doc:  "prove //mmutricks:noalloc transitively over the call graph, descending into unannotated callees",
	Run:  run,
}

// Root names one method anchoring the transitive proof. Roots are the
// hot-path entry points reached only from unannotated code (the
// kernel's access loop), so no annotated caller would flag a deleted
// annotation on them; the pass requires the annotation directly.
type Root struct {
	Pkg, Recv, Name string
}

// Roots are the anchored proof obligations: the MMU translation entry,
// the machine's physical access paths (scalar and batched), the cache's
// masked count-only run, the kernel's batched reference entry, and the
// tracer's emit path.
var Roots = []Root{
	{"mmutricks/internal/ppc", "MMU", "Translate"},
	{"mmutricks/internal/machine", "Machine", "MemAccess"},
	{"mmutricks/internal/machine", "Machine", "Fetch"},
	{"mmutricks/internal/machine", "Machine", "MemAccessRun"},
	{"mmutricks/internal/machine", "Machine", "MemAccessRunMask"},
	{"mmutricks/internal/machine", "Machine", "FetchRun"},
	{"mmutricks/internal/machine", "Machine", "MemPairRun"},
	{"mmutricks/internal/cache", "Cache", "AccessRunCountMask"},
	{"mmutricks/internal/kernel", "Kernel", "AccessRun"},
	{"mmutricks/internal/mmtrace", "Tracer", "Emit"},
}

func run(pass *analysis.Pass) error {
	visited := map[*types.Func]bool{}
	for _, file := range pass.Files {
		waived, badWaivers := annotation.LineWaivers(pass.Fset, file)
		for line := range badWaivers {
			pass.Reportf(noalloc.LineStart(pass.Fset, file, line), "mmutricks:noalloc-ok waiver requires a reason")
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			set := annotation.OfFunc(fd)
			for _, m := range set.Malformed {
				pass.Reportf(annotation.DocDirectivePos(fd.Doc), "malformed mmutricks directive: %s", m)
			}
			if !set.Noalloc || fd.Body == nil {
				continue
			}
			check(pass, fd, pass.Info, waived, visited)
		}
	}
	noalloc.CheckInterfaceImpls(pass)
	checkRoots(pass)
	return nil
}

// check runs the construct walk over one body (decl lives in the
// package described by info, which is not necessarily the package under
// analysis) and descends into unannotated, unwaived module callees.
func check(pass *analysis.Pass, decl *ast.FuncDecl, info *types.Info, waived map[int]string, visited map[*types.Func]bool) {
	bc := &noalloc.BodyChecker{
		Fset:   pass.Fset,
		Info:   info,
		Module: pass.Module,
		Report: pass.Reportf,
		Waived: waived,
	}
	bc.OnModuleCallee = func(call *ast.CallExpr, fn *types.Func, calleeDecl *ast.FuncDecl) {
		set := annotation.OfFunc(calleeDecl)
		if set.Noalloc || set.Free {
			return // proven at its own declaration, or explicitly waived
		}
		if _, ok := waived[pass.Fset.Position(call.Pos()).Line]; ok {
			return // the waiver vouches for the whole call
		}
		pass.Reportf(call.Pos(), "calls %s which is neither //mmutricks:noalloc nor waived //mmutricks:free", fn.Name())
		if visited[fn] {
			return
		}
		visited[fn] = true
		d, f, i := pass.Module.FuncSource(fn)
		if d == nil || d.Body == nil || i == nil {
			return
		}
		calleeWaived, _ := annotation.LineWaivers(pass.Fset, f)
		check(pass, d, i, calleeWaived, visited)
	}
	bc.Check(decl)
}

// checkRoots enforces the anchored proof obligations for the package
// under analysis.
func checkRoots(pass *analysis.Pass) {
	for _, r := range Roots {
		if pass.Pkg.Path() != r.Pkg {
			continue
		}
		tn, ok := pass.Pkg.Scope().Lookup(r.Recv).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() != r.Name {
				continue
			}
			decl := pass.Module.FuncDecl(m)
			if decl != nil && !annotation.OfFunc(decl).Noalloc {
				pass.Reportf(decl.Pos(), "%s.%s anchors the noalloc proof (noalloctrans.Roots) and must be annotated //mmutricks:noalloc", r.Recv, r.Name)
			}
		}
	}
}
