package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmutricks/tools/analyzers/driver"
	"mmutricks/tools/analyzers/load"
	"mmutricks/tools/analyzers/suite"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current diagnostics")

// TestGolden pins mmulint's rendered diagnostics — messages, file:line
// ordering, and the vet-style format — against a golden file, over a
// fixture tree holding one violation per whole-program proof pass.
func TestGolden(t *testing.T) {
	prog, err := load.Load(load.Config{FakeRoot: "testdata/src", Tests: true},
		"proofs/kern", "report")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := driver.Run(prog, suite.Default)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	var b strings.Builder
	for _, d := range diags {
		d.Pos.Filename = strings.TrimPrefix(filepath.ToSlash(d.Pos.Filename), "testdata/src/")
		b.WriteString(suite.Format(d, ""))
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s (run with -update to accept):\ngot:\n%swant:\n%s", golden, got, want)
	}
}
