package suite

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmutricks/tools/analyzers/driver"
	"mmutricks/tools/analyzers/load"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current diagnostics")

// moduleRoot is the repository root, three levels above this package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// vet renders diagnostics one per line, vet-style
// (file:line:col: analyzer: message), with each filename relative to
// dir when it sits underneath it.
func vet(diags []driver.Diag, dir string) string {
	var b strings.Builder
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Category, d.Message)
	}
	return b.String()
}

// TestLint runs every registered analyzer over the module's packages,
// test files included, and fails on any diagnostic.
func TestLint(t *testing.T) {
	root := moduleRoot(t)
	prog, err := load.Load(load.Config{Dir: root}, "./...")
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	diags, err := driver.Run(prog, Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("%d diagnostics:\n%s", len(diags), vet(diags, root))
	}
}

// TestGolden pins the rendered diagnostics — message, position and
// the vet-style format — against a golden file, over a fixture holding
// one determinism violation.
func TestGolden(t *testing.T) {
	const src = "testdata/src"
	prog, err := load.Load(load.Config{FakeRoot: src}, "report")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := driver.Run(prog, Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	got := vet(diags, src)

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

// TestGofmt fails on any .go file below the repository root that gofmt
// would change: the files `gofmt -l .` lists, testdata and the bench
// module included.
func TestGofmt(t *testing.T) {
	root := moduleRoot(t)
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		rel, _ := filepath.Rel(root, path)
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", rel, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted; run gofmt -w %s", rel, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no .go files found below the module root")
	}
}
