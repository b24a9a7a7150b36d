// Package determinism guards the packages that promise byte-identical
// output at any -j (the determinism zones: report, tracerec, chaos,
// mmtrace). Today that promise is enforced by runtime cmp checks in CI,
// which only catch divergence on the paths a test happens to drive;
// this pass proves the absence of the usual divergence sources over
// every path:
//
//   - ranging over a map (iteration order is randomized)
//   - time.Now / time.Since (wall-clock readings)
//   - the unseeded global math/rand source (seeded rand.New sources
//     are fine — the simulator's workloads use explicit seeds)
//   - goroutine bodies writing captured variables not through an
//     index (result depends on goroutine scheduling; index-stable
//     writes like out[i] = ... are the sanctioned pattern)
//   - formatting raw pointers with %p (addresses vary across runs)
//
// A construct that is nondeterministic locally but deterministic by
// the time bytes are rendered (a map range whose results are sorted
// before output, a wall-clock reading that never reaches the report)
// is waived on its line with `//mmutricks:nondet-ok <reason>`; the
// reason must carry the sorting/containment story.
//
// Test files are exempt: the zone promise covers what the package
// renders, not how its tests drive it.
package determinism

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/annotation"
	"mmutricks/tools/analyzers/noalloc"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag nondeterminism sources (map ranges, wall-clock, unseeded rand, unordered goroutine writes, %p) in byte-identical-output packages",
	Run:  run,
}

// zones are the package base names promising byte-identical output.
var zones = map[string]bool{
	"report":   true,
	"tracerec": true,
	"chaos":    true,
	"mmtrace":  true,
}

// seededConstructors are math/rand package functions that build
// explicitly-seeded sources rather than reading the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	base := path[strings.LastIndexByte(path, '/')+1:]
	if !zones[base] {
		return nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		waived, badWaivers := annotation.Waivers(pass.Fset, file, "nondet-ok")
		for line := range badWaivers {
			pass.Reportf(noalloc.LineStart(pass.Fset, file, line), "mmutricks:nondet-ok waiver requires a reason")
		}
		c := &checker{pass: pass, waived: waived}
		for _, decl := range file.Decls {
			c.walk(decl)
		}
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	waived map[int]string
}

// report emits a diagnostic unless its line carries a nondet-ok waiver.
func (c *checker) report(n ast.Node, format string, args ...any) {
	if _, ok := c.waived[c.pass.Fset.Position(n.Pos()).Line]; ok {
		return
	}
	c.pass.Reportf(n.Pos(), format, args...)
}

func (c *checker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, ok := c.typeUnder(n.X).(*types.Map); ok {
				c.report(n, "ranges over a map in nondeterministic order; collect and sort the keys, or waive //mmutricks:nondet-ok with the sorting story")
			}
		case *ast.CallExpr:
			c.call(n)
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				c.goroutineWrites(lit)
			}
		}
		return true
	})
}

func (c *checker) typeUnder(e ast.Expr) types.Type {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

func (c *checker) call(n *ast.CallExpr) {
	fn := noalloc.CalleeFunc(c.pass.Info, n.Fun)
	if fn != nil && fn.Pkg() != nil {
		switch pkg := fn.Pkg().Path(); {
		case pkg == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
			c.report(n, "calls time.%s: wall-clock time varies across runs and must not reach byte-identical output", fn.Name())
		case (pkg == "math/rand" || pkg == "math/rand/v2") && isPackageFunc(fn) && !seededConstructors[fn.Name()]:
			c.report(n, "calls %s.%s on the unseeded global source; build an explicitly seeded rand.New source instead", pkg, fn.Name())
		case pkg == "fmt":
			c.pointerVerb(n)
		}
	}
}

// pointerVerb flags constant fmt format strings containing %p.
func (c *checker) pointerVerb(n *ast.CallExpr) {
	for _, arg := range n.Args {
		tv, ok := c.pass.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		if strings.Contains(constant.StringVal(tv.Value), "%p") {
			c.report(arg, "formats a raw pointer with %%p: addresses vary across runs")
		}
	}
}

// isPackageFunc reports whether fn is a package-level function (not a
// method, whose receiver carries its own seeded state).
func isPackageFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// goroutineWrites flags assignments inside a go-statement closure that
// target captured variables without going through an index: such writes
// land in schedule order. out[i] = ... writes are index-stable and
// allowed (the RowSet/RunAll pattern).
func (c *checker) goroutineWrites(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.goroutineLHS(lit, lhs)
			}
		case *ast.IncDecStmt:
			c.goroutineLHS(lit, n.X)
		}
		return true
	})
}

func (c *checker) goroutineLHS(lit *ast.FuncLit, lhs ast.Expr) {
	if writesThroughIndex(lhs) {
		return
	}
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj, ok := c.pass.Info.ObjectOf(root).(*types.Var)
	if !ok || obj.Pos() == 0 {
		return
	}
	if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
		return // declared inside the goroutine
	}
	c.report(lhs, "goroutine writes captured %s without an index: completion order depends on goroutine scheduling", root.Name)
}

// writesThroughIndex reports whether the lvalue chain contains an index
// step (out[i], s.rows[i].cell, ...), making concurrent writes land at
// caller-chosen positions.
func writesThroughIndex(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// rootIdent returns the base identifier of an lvalue chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
