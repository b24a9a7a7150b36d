// Package suite is the single registry of the repo's analyzers and the
// command-line driver behind cmd/mmulint. Adding an analyzer is a
// one-line registration in Analyzers; mmulint picks it up, and -list
// prints it.
//
// Analyzers holds the structural hygiene checks — cycle-accounting
// completeness, invariant checking in state-mutating tests,
// experiment-registration hygiene — and the whole-program proofs:
// determinism of byte-identical output packages, model↔kernel
// transition parity, and telemetry phase-span balance.
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
	"mmutricks/tools/analyzers/phasebalance"
	"mmutricks/tools/analyzers/registry"
	"mmutricks/tools/analyzers/transitions"
)

// Analyzers is every analyzer mmulint runs; -run selects a subset.
var Analyzers = []*analysis.Analyzer{
	cyclecost.Analyzer,
	invariantcheck.Analyzer,
	registry.Analyzer,
	determinism.Analyzer,
	transitions.Analyzer,
	phasebalance.Analyzer,
}

// Main is mmulint's driver: parse flags, load packages, run the
// analyzers (or the -run selection), print vet-style diagnostics, and
// exit 1 on a non-empty report or 2 on load errors.
func Main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	tests := flag.Bool("tests", true, "analyze _test.go files too")
	run := flag.String("run", "", "comma-separated analyzer names to run instead of all of them")
	flag.Parse()

	if *list {
		for _, a := range Analyzers {
			fmt.Printf("%-15s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers := Analyzers
	if *run != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range Analyzers {
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
