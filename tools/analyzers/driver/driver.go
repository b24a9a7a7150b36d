// Package driver runs a set of analyzers over loaded packages and
// collects their diagnostics in deterministic order. cmd/mmulint and
// the analysistest harness share it.
package driver

import (
	"go/token"
	"sort"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/load"
)

// Diag is one resolved diagnostic.
type Diag struct {
	Pos      token.Position
	Category string
	Message  string
}

// Run applies every analyzer to every package and returns diagnostics
// sorted by file, line, column, analyzer, message.
func Run(prog *load.Program, analyzers []*analysis.Analyzer) ([]Diag, error) {
	var diags []Diag
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			report := func(d analysis.Diagnostic) {
				diags = append(diags, Diag{
					Pos:      prog.Fset.Position(d.Pos),
					Category: d.Category,
					Message:  d.Message,
				})
			}
			pass := analysis.NewPass(a, prog.Fset, pkg.Files, pkg.Types, pkg.Info, report)
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
	return diags, nil
}
