// Package suite is the single registry of the repo's analyzers and the
// command-line driver behind cmd/mmulint. Adding an analyzer is a
// one-line registration in the set it belongs to; mmulint picks it
// up, and -list prints it.
//
// The sets:
//
//   - Default: every pass mmulint runs with no -run flag. The
//     structural hygiene checks — cycle-accounting completeness,
//     invariant checking in state-mutating tests, experiment-
//     registration hygiene — and the whole-program proofs: transitive
//     noalloc over the call graph, determinism of byte-identical
//     output packages, model↔kernel transition parity, and telemetry
//     phase-span balance.
//   - Extra: registered and selectable via -run, but not run by
//     default. The single-function noalloc pass lives here:
//     noalloctrans subsumes it, and running both would double-report.
package suite

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/cyclecost"
	"mmutricks/tools/analyzers/determinism"
	"mmutricks/tools/analyzers/driver"
	"mmutricks/tools/analyzers/invariantcheck"
	"mmutricks/tools/analyzers/load"
	"mmutricks/tools/analyzers/noalloc"
	"mmutricks/tools/analyzers/noalloctrans"
	"mmutricks/tools/analyzers/phasebalance"
	"mmutricks/tools/analyzers/registry"
	"mmutricks/tools/analyzers/transitions"
)

// Default is the set mmulint runs when no -run flag is given.
var Default = []*analysis.Analyzer{
	cyclecost.Analyzer,
	invariantcheck.Analyzer,
	registry.Analyzer,
	noalloctrans.Analyzer,
	determinism.Analyzer,
	transitions.Analyzer,
	phasebalance.Analyzer,
}

// Extra holds analyzers outside the default set, still selectable via
// -run.
var Extra = []*analysis.Analyzer{
	noalloc.Analyzer,
}

// All returns every registered analyzer, the default set first.
func All() []*analysis.Analyzer {
	return append(append([]*analysis.Analyzer(nil), Default...), Extra...)
}

// Main is mmulint's driver: parse flags, load packages, run the
// default analyzers (or the -run selection from the full registry),
// print vet-style diagnostics, and exit 1 on a non-empty report or 2 on
// load errors.
func Main() {
	list := flag.Bool("list", false, "list all registered analyzers and exit")
	tests := flag.Bool("tests", true, "analyze _test.go files too")
	run := flag.String("run", "", "comma-separated analyzer names to run instead of the default set")
	flag.Parse()

	if *list {
		inSet := map[string]bool{}
		for _, a := range Default {
			inSet[a.Name] = true
		}
		for _, a := range All() {
			mark := " "
			if inSet[a.Name] {
				mark = "*"
			}
			fmt.Printf("%s %-15s %s\n", mark, a.Name, firstLine(a.Doc))
		}
		fmt.Print("\n* = in the default set\n")
		return
	}

	analyzers := Default
	if *run != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range All() {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mmulint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := load.Load(load.Config{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmulint: %v\n", err)
		os.Exit(2)
	}
	diags, err := driver.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmulint: %v\n", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd()
	for _, d := range diags {
		fmt.Println(Format(d, wd))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// Format renders one diagnostic vet-style, with the filename relative
// to wd when it sits underneath it.
func Format(d driver.Diag, wd string) string {
	name := d.Pos.Filename
	if wd != "" {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", name, d.Pos.Line, d.Pos.Column, d.Category, d.Message)
}

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}
