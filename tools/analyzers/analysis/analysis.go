// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API, carrying exactly the surface the
// mmulint analyzers need. The container this repo builds in has no
// network and no module cache, so x/tools cannot be vendored; the types
// here mirror its shapes (Analyzer, Pass, Diagnostic) closely enough
// that the analyzers could be ported to the real framework by swapping
// the import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	Name string
	// Doc is the one-paragraph description shown by `mmulint -list`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass holds everything an analyzer may inspect about one package.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// report receives diagnostics.
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// NewPass builds a Pass; drivers (mmulint, analysistest) use it.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, report: report}
}

// LineStart returns a position on the given line of file for reporting.
func LineStart(fset *token.FileSet, file *ast.File, line int) token.Pos {
	tf := fset.File(file.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return file.Pos()
	}
	return tf.LineStart(line)
}

// CalleeFunc resolves the static callee of a call expression against
// info, or nil for dynamic calls.
func CalleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified package function: pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
